//! Error-path coverage for the on-disk index (`dbindex::store`): a
//! resident daemon loads the index once at startup and then trusts it for
//! its whole lifetime, and an out-of-core one keeps fetching records from
//! it, so every malformed input must be rejected with the *right*
//! `SerialError` — and none may panic or allocate from a hostile count.

use bioseq::{Sequence, SequenceDb};
use dbindex::crc::{crc32, Crc32};
use dbindex::{
    read_directory, read_store, write_store, DbIndex, IndexConfig, SerialError, StoreBlockMeta,
};

const HEADER_LEN: usize = 4 + 4 + 8 + 4 + 8 + 4;
const TAIL_LEN: usize = 4 + 4 + 4 + 4;

fn sample_index() -> DbIndex {
    let db: SequenceDb = [
        "MARNDWWWCQEG",
        "WWWHILKMFPST",
        "ARNDARNDARND",
        "MKVL",
        "QQQQWERTY",
    ]
    .iter()
    .enumerate()
    .map(|(i, s)| Sequence::from_str_checked(format!("s{i}"), s).unwrap())
    .collect();
    let config = IndexConfig {
        block_bytes: 80,
        offset_bits: 15,
        frag_overlap: 8,
    };
    DbIndex::build(&db, &config)
}

fn sample_bytes() -> Vec<u8> {
    write_store(&sample_index())
}

/// Directory rows of the clean sample (record extents to aim mutations at).
fn sample_rows() -> Vec<StoreBlockMeta> {
    let rows = read_directory(&mut std::io::Cursor::new(sample_bytes()))
        .unwrap()
        .blocks;
    assert!(rows.len() > 1, "want a multi-block sample");
    rows
}

fn put_u32_at(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64_at(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Re-seal a mutated record with a fresh, correct CRC trailer so the test
/// exercises the *parser's* reaction to the mutation, not the checksum's.
fn reseal_record(mut bytes: Vec<u8>, row: &StoreBlockMeta) -> Vec<u8> {
    let start = row.offset as usize;
    let trailer = start + row.len as usize - 4;
    let sum = crc32(&bytes[start..trailer]);
    put_u32_at(&mut bytes, trailer, sum);
    bytes
}

/// Same for the footer: recompute the CRC over header + directory rows.
fn reseal_directory(mut bytes: Vec<u8>) -> Vec<u8> {
    let tail = bytes.len() - TAIL_LEN;
    let dir_len = u32_at(&bytes, tail + 4) as usize;
    let mut crc = Crc32::new();
    crc.update(&bytes[..HEADER_LEN]);
    crc.update(&bytes[tail - dir_len..tail]);
    put_u32_at(&mut bytes, tail + 8, crc.finalize());
    bytes
}

/// Byte offsets of the length fields inside the first record.
struct RecordFields {
    n_seqs: usize,
    residue_len: usize,
    first_residue: usize,
    offsets_count: usize,
    entries_count: usize,
    n_chunks: usize,
}

fn first_record_fields(bytes: &[u8], rows: &[StoreBlockMeta]) -> RecordFields {
    let n_seqs = rows[0].offset as usize;
    let residue_len = n_seqs + 4 + u32_at(bytes, n_seqs) as usize * 16;
    let first_residue = residue_len + 8;
    let offsets_count = first_residue + u32_at(bytes, residue_len) as usize;
    let entries_count = offsets_count + 8 + 4 + u32_at(bytes, offsets_count + 8) as usize;
    RecordFields {
        n_seqs,
        residue_len,
        first_residue,
        offsets_count,
        entries_count,
        n_chunks: entries_count + 8 + 4,
    }
}

// ---------------------------------------------------------------------
// Truncation
// ---------------------------------------------------------------------

#[test]
fn truncation_at_every_single_byte() {
    let bytes = sample_bytes();
    // Exhaustive: every proper prefix must fail cleanly, never panic.
    for cut in 0..bytes.len() {
        let r = read_store(&bytes[..cut]);
        assert!(r.is_err(), "prefix of {cut} bytes unexpectedly parsed");
    }
}

#[test]
fn truncation_inside_header_is_truncated_not_corrupt() {
    let bytes = sample_bytes();
    // Nothing to checksum yet: a short header is Truncated.
    for cut in [0, 3, 4, 7, 8, 11, HEADER_LEN - 1] {
        assert_eq!(
            read_store(&bytes[..cut]),
            Err(SerialError::Truncated),
            "cut at {cut}"
        );
    }
}

#[test]
fn truncated_record_is_truncated_even_with_a_valid_trailer() {
    // A record cut short but re-sealed (what a torn-then-patched write
    // looks like): the body parser must run out of bytes, not index past
    // them.
    let rows = sample_rows();
    let bytes = sample_bytes();
    let record = &bytes[rows[0].offset as usize..][..rows[0].len as usize];
    for keep in [0, 3, 4, 20, record.len() / 2, record.len() - 5] {
        let mut cut = record[..keep].to_vec();
        cut.extend_from_slice(&crc32(&record[..keep]).to_le_bytes());
        assert_eq!(
            dbindex::decode_block(&cut, 15).err(),
            Some(SerialError::Truncated),
            "kept {keep} body bytes"
        );
    }
}

// ---------------------------------------------------------------------
// Bad magic / versions
// ---------------------------------------------------------------------

#[test]
fn bad_magic() {
    let mut bytes = sample_bytes();
    bytes[0] = b'X';
    assert_eq!(read_store(&bytes), Err(SerialError::BadMagic));
    // A damaged footer magic is a framing error, not a version question.
    let mut bytes = sample_bytes();
    let last = bytes.len() - 1;
    bytes[last] = b'X';
    assert_eq!(read_store(&bytes), Err(SerialError::Truncated));
}

#[test]
fn every_version_but_the_current_one_is_bad_version() {
    // 1 and 2 were the flat images, 3 the bound-less store, 5 is the
    // future: none is read, each names itself in the error. The check
    // precedes every other field, so the rest of the file is irrelevant.
    for v in [0u32, 1, 2, 3, 5] {
        let mut bytes = sample_bytes();
        put_u32_at(&mut bytes, 4, v);
        assert_eq!(read_store(&bytes), Err(SerialError::BadVersion(v)));
        assert_eq!(
            read_directory(&mut std::io::Cursor::new(&bytes)).err(),
            Some(SerialError::BadVersion(v))
        );
    }
}

// ---------------------------------------------------------------------
// Inconsistent length fields (resealed so the checksums are valid and the
// parser itself must catch the inconsistency)
// ---------------------------------------------------------------------

#[test]
fn oversized_block_count() {
    // Header only: disagrees with the footer's count.
    let mut bytes = sample_bytes();
    put_u32_at(&mut bytes, HEADER_LEN - 4, u32::MAX);
    assert_eq!(
        read_store(&reseal_directory(bytes)),
        Err(SerialError::Truncated)
    );
    // Header and footer agree on the lie: the directory length cannot.
    let mut bytes = sample_bytes();
    let tail = bytes.len() - TAIL_LEN;
    put_u32_at(&mut bytes, HEADER_LEN - 4, u32::MAX);
    put_u32_at(&mut bytes, tail, u32::MAX);
    assert_eq!(
        read_store(&reseal_directory(bytes)),
        Err(SerialError::Truncated)
    );
    // And a directory length larger than the file.
    let mut bytes = sample_bytes();
    put_u32_at(&mut bytes, tail + 4, u32::MAX);
    assert_eq!(read_store(&bytes), Err(SerialError::Truncated));
}

#[test]
fn directory_extents_outside_the_record_region() {
    let rows = sample_rows();
    let dir_start = sample_bytes().len() - TAIL_LEN - rows.len() * (52 + 8 + 4 * 24);
    for (offset, len) in [
        (0u64, rows[0].len),        // into the header
        (u64::MAX, rows[0].len),    // offset + len overflows
        (rows[0].offset, u32::MAX), // past the end of the file
        (dir_start as u64 - 1, 2),  // straddles the directory
    ] {
        let mut bytes = sample_bytes();
        put_u64_at(&mut bytes, dir_start, offset);
        put_u32_at(&mut bytes, dir_start + 8, len);
        assert_eq!(
            read_store(&reseal_directory(bytes)),
            Err(SerialError::Truncated),
            "offset {offset} len {len}"
        );
    }
}

#[test]
fn oversized_counts_inside_a_record_fail_without_trusting_them() {
    let rows = sample_rows();
    let clean = sample_bytes();
    let f = first_record_fields(&clean, &rows);
    // Each field is blown up to its type's maximum: n_seqs × 16 must hit
    // the checked_mul guard, the lengths must fail `take`, the counts must
    // fail their cross-checks — none may size an allocation.
    let mutations: [(&str, &dyn Fn(&mut [u8])); 6] = [
        ("fragment count", &|b| put_u32_at(b, f.n_seqs, u32::MAX)),
        ("residue length", &|b| {
            put_u64_at(b, f.residue_len, u64::MAX)
        }),
        ("offsets count", &|b| {
            put_u64_at(b, f.offsets_count, u64::MAX)
        }),
        ("offsets byte length", &|b| {
            put_u32_at(b, f.offsets_count + 8, u32::MAX)
        }),
        ("entry count", &|b| put_u64_at(b, f.entries_count, u64::MAX)),
        ("chunk count", &|b| put_u32_at(b, f.n_chunks, u32::MAX)),
    ];
    for (what, mutate) in mutations {
        let mut bytes = clean.clone();
        mutate(&mut bytes);
        assert_eq!(
            read_store(&reseal_record(bytes, &rows[0])),
            Err(SerialError::Truncated),
            "{what}"
        );
    }
}

#[test]
fn fragment_extent_outside_the_residue_buffer() {
    let rows = sample_rows();
    let mut bytes = sample_bytes();
    let f = first_record_fields(&bytes, &rows);
    // First fragment descriptor: {global_id, frag_offset, start, len}.
    put_u32_at(&mut bytes, f.n_seqs + 4 + 12, u32::MAX);
    assert_eq!(
        read_store(&reseal_record(bytes, &rows[0])),
        Err(SerialError::Truncated)
    );
}

#[test]
fn nonsense_offset_bits() {
    for bad_bits in [0u32, 32, 64] {
        let mut bytes = sample_bytes();
        put_u32_at(&mut bytes, 16, bad_bits);
        assert_eq!(
            read_store(&reseal_directory(bytes)),
            Err(SerialError::Truncated),
            "bits={bad_bits}"
        );
    }
}

// ---------------------------------------------------------------------
// Checksum mismatch
// ---------------------------------------------------------------------

#[test]
fn flipped_payload_byte_is_corrupt() {
    let rows = sample_rows();
    let mut bytes = sample_bytes();
    // A residue byte: parses fine, so only the record CRC can catch it.
    let at = first_record_fields(&bytes, &rows).first_residue;
    bytes[at] ^= 0x04;
    assert_eq!(read_store(&bytes), Err(SerialError::Corrupt));
}

#[test]
fn flipped_trailer_bytes_are_corrupt() {
    let rows = sample_rows();
    // Every record's CRC trailer, then the directory's.
    for row in &rows {
        let mut bytes = sample_bytes();
        bytes[(row.offset + u64::from(row.len)) as usize - 1] ^= 0x80;
        assert_eq!(read_store(&bytes), Err(SerialError::Corrupt));
    }
    let mut bytes = sample_bytes();
    let dir_crc = bytes.len() - 8;
    bytes[dir_crc] ^= 0x80;
    assert_eq!(read_store(&bytes), Err(SerialError::Corrupt));
}

#[test]
fn flipped_header_config_or_directory_row_is_corrupt() {
    // The directory CRC covers the header, so a flipped build parameter
    // is caught at open time; so is a flipped score bound, which would
    // otherwise let a top-k search skip a block it must scan.
    let mut bytes = sample_bytes();
    bytes[8] ^= 0x01; // block_bytes
    assert_eq!(read_store(&bytes), Err(SerialError::Corrupt));
    let mut bytes = sample_bytes();
    let last_hist_word = bytes.len() - TAIL_LEN - 4;
    bytes[last_hist_word] ^= 0x01;
    assert_eq!(read_store(&bytes), Err(SerialError::Corrupt));
}

#[test]
fn bit_flips_are_rejected_across_the_file() {
    let bytes = sample_bytes();
    // A flip anywhere must be rejected — Corrupt when the mutation still
    // parses, Truncated/BadMagic/BadVersion when it breaks framing first.
    // A prime stride plus both file ends visits every region of the
    // layout (header, descriptors, residues, CSR offsets, posting chunks,
    // record trailers, directory rows, tail).
    let ends = (0..64.min(bytes.len())).chain(bytes.len().saturating_sub(256)..bytes.len());
    for i in (0..bytes.len()).step_by(487).chain(ends) {
        for bit in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[i] ^= bit;
            assert!(read_store(&bad).is_err(), "flip {i:#x}^{bit:#04x} accepted");
        }
    }
}
