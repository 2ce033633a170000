//! Error-path coverage for the on-disk index (`dbindex::store`): a
//! resident daemon loads the index once at startup and then trusts it for
//! its whole lifetime, and an out-of-core one keeps fetching records from
//! it, so every malformed input must be rejected with the *right*
//! `SerialError` — and none may panic or allocate from a hostile count.

use bioseq::alphabet::WORD_SPACE;
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

/// Byte offsets of the fields inside the first record.
struct RecordFields {
    n_seqs: usize,
    residue_len: usize,
    first_residue: usize,
    offsets_count: usize,
    first_offset: usize,
    entries_count: usize,
    first_entry: usize,
}

/// Field offsets of the record that starts at byte `n_seqs` of `bytes`.
fn record_fields(bytes: &[u8], n_seqs: usize) -> RecordFields {
    let residue_len = n_seqs + 4 + u32_at(bytes, n_seqs) as usize * 16;
    let first_residue = residue_len + 8;
    let offsets_count = first_residue + u32_at(bytes, residue_len) as usize;
    let first_offset = offsets_count + 8;
    let entries_count = first_offset + 4 * (WORD_SPACE + 1);
    RecordFields {
        n_seqs,
        residue_len,
        first_residue,
        offsets_count,
        first_offset,
        entries_count,
        first_entry: entries_count + 8,
    }
}

fn first_record_fields(bytes: &[u8], rows: &[StoreBlockMeta]) -> RecordFields {
    record_fields(bytes, rows[0].offset as usize)
}

/// The first record's body (no trailer) with its field offsets, for tests
/// that splice bytes in or out and hand the result to `decode_block`
/// directly.
fn first_record_body() -> (Vec<u8>, RecordFields) {
    let rows = sample_rows();
    let bytes = sample_bytes();
    let start = rows[0].offset as usize;
    let body = bytes[start..start + rows[0].len as usize - 4].to_vec();
    let f = record_fields(&body, 0);
    assert!(
        u32_at(&body, f.entries_count) > 0,
        "want postings in the first block"
    );
    (body, f)
}

/// Append a correct CRC trailer to a record body.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let sum = crc32(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
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
    // 1 and 2 were the flat images, 3 the bound-less store, 4 the varint
    // chunk store, 6 is the future: none is read, each names itself in
    // the error. The check precedes every other field, so the rest of the
    // file is irrelevant.
    for v in [0u32, 1, 2, 3, 4, 6] {
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
    let n_entries = u64::from(u32_at(&clean, f.entries_count));
    // Each count is blown up — to its type's maximum, to a value whose
    // byte length wraps, and to one past what the record holds: n × 16 and
    // n × 4 must hit their checked_mul guards, the rest must fail `take`
    // — none may size an allocation.
    let mutations: [(&str, &dyn Fn(&mut [u8])); 7] = [
        ("fragment count", &|b| put_u32_at(b, f.n_seqs, u32::MAX)),
        ("residue length", &|b| {
            put_u64_at(b, f.residue_len, u64::MAX)
        }),
        ("offsets count", &|b| {
            put_u64_at(b, f.offsets_count, u64::MAX)
        }),
        ("entry count", &|b| put_u64_at(b, f.entries_count, u64::MAX)),
        ("entry count × 4 wraps to 0", &|b| {
            put_u64_at(b, f.entries_count, 1 << 62)
        }),
        ("entry count × 4 wraps to the truth", &|b| {
            put_u64_at(b, f.entries_count, (1 << 62) + n_entries)
        }),
        ("entry count one past the bytes", &|b| {
            put_u64_at(b, f.entries_count, n_entries + 1)
        }),
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
fn csr_offsets_that_go_backwards_are_rejected() {
    // Fixed-width offsets are not monotone by construction, and
    // `IndexBlock::postings()` slices `entries[offsets[w]..offsets[w + 1]]`:
    // a CRC-valid record with a backwards step must not reach a search.
    let (body, f) = first_record_body();
    let n_entries = u32_at(&body, f.entries_count);
    let at = |k: usize| f.first_offset + 4 * k;
    let next = |k: usize| u32_at(&body, at(k + 1));
    let cases = [
        (0, next(0) + 1),                           // the leading zero
        (WORD_SPACE / 2, u32::MAX),                 // far outside the entry array
        (WORD_SPACE / 2, n_entries + 1),            // one past it
        (WORD_SPACE - 1, next(WORD_SPACE - 1) + 1), // the last step
    ];
    for (k, v) in cases {
        let mut bad = body.clone();
        put_u32_at(&mut bad, at(k), v);
        assert_eq!(
            dbindex::decode_block(&seal(bad), 15).err(),
            Some(SerialError::Truncated),
            "offsets[{k}] = {v}"
        );
    }
    // The unmutated body, sealed the same way, is what the writer wrote.
    assert!(dbindex::decode_block(&seal(body), 15).is_ok());
}

#[test]
fn offsets_run_of_the_wrong_length_is_rejected_even_when_well_formed() {
    // One offset too many (the end repeated) and one too few (the leading
    // zero dropped): both runs are monotone and end at the entry count,
    // so only the `WORD_SPACE + 1` check can object.
    let (body, f) = first_record_body();
    let mut longer = body.clone();
    let last = body[f.entries_count - 4..f.entries_count].to_vec();
    longer.splice(f.entries_count..f.entries_count, last);
    put_u64_at(&mut longer, f.offsets_count, WORD_SPACE as u64 + 2);
    let mut shorter = body.clone();
    shorter.drain(f.first_offset..f.first_offset + 4);
    put_u64_at(&mut shorter, f.offsets_count, WORD_SPACE as u64);
    for (what, bad) in [("one more", longer), ("one fewer", shorter)] {
        assert_eq!(
            dbindex::decode_block(&seal(bad), 15).err(),
            Some(SerialError::Truncated),
            "{what}"
        );
    }
}

#[test]
fn entries_run_that_disagrees_with_the_csr_end_is_rejected() {
    // Well-formed runs, but the last offset does not address the end of
    // the entry array: one entry dropped, one appended.
    let (body, f) = first_record_body();
    let n_entries = u64::from(u32_at(&body, f.entries_count));
    let mut fewer = body.clone();
    fewer.truncate(body.len() - 4);
    put_u64_at(&mut fewer, f.entries_count, n_entries - 1);
    let mut more = body.clone();
    more.extend_from_slice(&0u32.to_le_bytes());
    put_u64_at(&mut more, f.entries_count, n_entries + 1);
    for (what, bad) in [("one fewer", fewer), ("one more", more)] {
        assert_eq!(
            dbindex::decode_block(&seal(bad), 15).err(),
            Some(SerialError::Truncated),
            "{what}"
        );
    }
}

#[test]
fn trailing_bytes_after_the_entries_are_rejected() {
    let (body, f) = first_record_body();
    assert_eq!(
        body.len(),
        f.first_entry + 4 * u32_at(&body, f.entries_count) as usize,
        "entries are the last run of a record"
    );
    for extra in [1usize, 4, 17] {
        let mut bad = body.clone();
        bad.extend(std::iter::repeat(0u8).take(extra));
        assert_eq!(
            dbindex::decode_block(&seal(bad), 15).err(),
            Some(SerialError::Truncated),
            "{extra} trailing bytes"
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
    // layout (header, descriptors, residues, CSR offsets, posting entries,
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
