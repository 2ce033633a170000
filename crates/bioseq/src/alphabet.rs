//! The BLASTP protein alphabet and word (k-mer) encoding.
//!
//! BLASTP operates on a 24-letter alphabet: the 20 standard amino acids plus
//! the four special states `B` (Asx), `Z` (Glx), `X` (any) and `*` (stop).
//! This matches the row/column set of the standard BLOSUM matrices and the
//! "24 possible characters" the muBLASTP paper cites for protein search.
//!
//! Residues are encoded as `u8` codes in `0..24` using the canonical NCBI
//! ordering `ARNDCQEGHILKMFPSTWYVBZX*`, which is also the ordering of the
//! BLOSUM62 matrix rows in `scoring`.
//!
//! Words of length [`WORD_LEN`] (= 3, the BLASTP default) are packed into a
//! dense integer id in `0..WORD_SPACE` (24³ = 13 824) so that index lookup
//! tables can be flat arrays.

/// Number of letters in the protein alphabet (20 amino acids + B, Z, X, `*`).
pub const ALPHABET_SIZE: usize = 24;

/// BLASTP word length `W`. The paper (and NCBI-BLAST) use `W = 3` for
/// protein search; all index structures in this workspace are specialised to
/// this value.
pub const WORD_LEN: usize = 3;

/// Number of distinct words: `ALPHABET_SIZE.pow(WORD_LEN)` = 13 824.
pub const WORD_SPACE: usize = ALPHABET_SIZE * ALPHABET_SIZE * ALPHABET_SIZE;

/// Canonical residue ordering (NCBI / BLOSUM order).
pub(crate) const RESIDUES: [u8; ALPHABET_SIZE] = *b"ARNDCQEGHILKMFPSTWYVBZX*";

/// Residue code of the ambiguity letter `X` (position in [`RESIDUES`]).
/// Maskers write this code directly instead of round-tripping through
/// [`encode_residue`].
pub(crate) const X_CODE: u8 = 22;

/// Packed word identifier in `0..WORD_SPACE`.
pub type Word = u32;

/// Encoding table from ASCII (uppercased) to residue code; `255` = invalid.
const ENCODE: [u8; 256] = {
    let mut t = [255u8; 256];
    let mut i = 0;
    while i < ALPHABET_SIZE {
        let c = RESIDUES[i];
        t[c as usize] = i as u8;
        // Accept lowercase input as well.
        if c.is_ascii_uppercase() {
            t[(c + 32) as usize] = i as u8;
        }
        i += 1;
    }
    // Common IUPAC extras are folded to X ("any"): J (Leu/Ile), O
    // (pyrrolysine), U (selenocysteine) and the gap-ish characters.
    let x = t[b'X' as usize];
    t[b'J' as usize] = x;
    t[b'j' as usize] = x;
    t[b'O' as usize] = x;
    t[b'o' as usize] = x;
    t[b'U' as usize] = x;
    t[b'u' as usize] = x;
    t[b'-' as usize] = x;
    t
};

/// Encode one ASCII residue to its `0..24` code.
///
/// Unknown characters (including IUPAC `J`/`O`/`U`) are folded to `X`;
/// returns `None` only for bytes that cannot appear in a protein sequence at
/// all (digits, punctuation other than `*`/`-`, control characters).
#[inline]
pub fn encode_residue(ascii: u8) -> Option<u8> {
    let code = ENCODE[ascii as usize];
    if code == 255 {
        None
    } else {
        Some(code)
    }
}

/// Decode a `0..24` residue code back to its ASCII letter.
///
/// # Panics
/// Panics if `code >= ALPHABET_SIZE`.
#[inline]
pub fn decode_residue(code: u8) -> u8 {
    RESIDUES[code as usize]
}

/// Pack three residue codes into a word id.
///
/// The first residue occupies the most-significant digit so that words sort
/// lexicographically by their packed id.
#[inline]
pub fn pack_word(r0: u8, r1: u8, r2: u8) -> Word {
    debug_assert!((r0 as usize) < ALPHABET_SIZE);
    debug_assert!((r1 as usize) < ALPHABET_SIZE);
    debug_assert!((r2 as usize) < ALPHABET_SIZE);
    (r0 as Word * ALPHABET_SIZE as Word + r1 as Word) * ALPHABET_SIZE as Word + r2 as Word
}

/// Unpack a word id back into its three residue codes.
#[inline]
pub fn unpack_word(w: Word) -> [u8; WORD_LEN] {
    debug_assert!((w as usize) < WORD_SPACE);
    let a = ALPHABET_SIZE as Word;
    [(w / (a * a)) as u8, (w / a % a) as u8, (w % a) as u8]
}

/// Iterator over the *overlapping* words of an encoded sequence, yielding
/// `(offset, word_id)` for every position `0 ..= len - WORD_LEN`.
///
/// Overlapping (stride-1) words are what distinguish the paper's index from
/// prior database-index tools that sacrificed sensitivity by using
/// non-overlapping or longer words (Sec. I of the paper).
pub struct WordIter<'a> {
    seq: &'a [u8],
    pos: usize,
    /// Rolling word value of `seq[pos .. pos + WORD_LEN]`.
    current: Word,
}

impl<'a> WordIter<'a> {
    /// Create a word iterator over an encoded sequence. Sequences shorter
    /// than `WORD_LEN` yield nothing.
    pub fn new(seq: &'a [u8]) -> Self {
        let current = if seq.len() >= WORD_LEN {
            pack_word(seq[0], seq[1], seq[2])
        } else {
            0
        };
        WordIter { seq, pos: 0, current }
    }
}

impl<'a> Iterator for WordIter<'a> {
    type Item = (u32, Word);

    #[inline]
    fn next(&mut self) -> Option<(u32, Word)> {
        if self.pos + WORD_LEN > self.seq.len() {
            return None;
        }
        let out = (self.pos as u32, self.current);
        self.pos += 1;
        if self.pos + WORD_LEN <= self.seq.len() {
            // Roll: drop the leading digit, shift, append the new residue.
            let a = ALPHABET_SIZE as Word;
            self.current = (self.current % (a * a)) * a + self.seq[self.pos + WORD_LEN - 1] as Word;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.seq.len() + 1).saturating_sub(self.pos + WORD_LEN);
        (n, Some(n))
    }
}

impl ExactSizeIterator for WordIter<'_> {}

/// Encode an ASCII string slice into residue codes, skipping whitespace.
///
/// Returns `Err` with the offending byte on non-protein input.
pub fn encode_str(s: &str) -> Result<Vec<u8>, u8> {
    let mut out = Vec::with_capacity(s.len());
    for &b in s.as_bytes() {
        if b.is_ascii_whitespace() {
            continue;
        }
        out.push(encode_residue(b).ok_or(b)?);
    }
    Ok(out)
}

/// Decode residue codes into an ASCII `String`.
pub fn decode_to_string(codes: &[u8]) -> String {
    codes.iter().map(|&c| decode_residue(c) as char).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_has_24_unique_letters() {
        let mut seen = [false; 256];
        for &c in &RESIDUES {
            assert!(!seen[c as usize], "duplicate residue {}", c as char);
            seen[c as usize] = true;
        }
        assert_eq!(RESIDUES.len(), 24);
    }

    #[test]
    fn encode_decode_roundtrip() {
        for (i, &c) in RESIDUES.iter().enumerate() {
            assert_eq!(encode_residue(c), Some(i as u8));
            assert_eq!(decode_residue(i as u8), c);
        }
    }

    #[test]
    fn lowercase_accepted() {
        assert_eq!(encode_residue(b'a'), encode_residue(b'A'));
        assert_eq!(encode_residue(b'w'), encode_residue(b'W'));
    }

    #[test]
    fn unknown_iupac_folds_to_x() {
        let x = encode_residue(b'X').unwrap();
        for c in [b'J', b'O', b'U', b'j', b'-'] {
            assert_eq!(encode_residue(c), Some(x));
        }
    }

    #[test]
    fn x_code_matches_the_encoding_table() {
        assert_eq!(encode_residue(b'X'), Some(X_CODE));
        assert_eq!(decode_residue(X_CODE), b'X');
    }

    #[test]
    fn invalid_bytes_rejected() {
        for c in [b'1', b'@', b' ', b'\n', 0u8] {
            assert_eq!(encode_residue(c), None, "byte {c:?}");
        }
    }

    #[test]
    fn word_pack_unpack_roundtrip_exhaustive() {
        for w in 0..WORD_SPACE as Word {
            let [a, b, c] = unpack_word(w);
            assert_eq!(pack_word(a, b, c), w);
        }
    }

    #[test]
    fn word_space_is_13824() {
        assert_eq!(WORD_SPACE, 13_824);
    }

    #[test]
    fn word_iter_matches_naive() {
        let seq = encode_str("ARNDCQEGHILKMARND").unwrap();
        let naive: Vec<(u32, Word)> = (0..=seq.len() - WORD_LEN)
            .map(|i| (i as u32, pack_word(seq[i], seq[i + 1], seq[i + 2])))
            .collect();
        let rolled: Vec<(u32, Word)> = WordIter::new(&seq).collect();
        assert_eq!(naive, rolled);
    }

    #[test]
    fn word_iter_short_sequences() {
        assert_eq!(WordIter::new(&[]).count(), 0);
        assert_eq!(WordIter::new(&[1]).count(), 0);
        assert_eq!(WordIter::new(&[1, 2]).count(), 0);
        assert_eq!(WordIter::new(&[1, 2, 3]).count(), 1);
        let it = WordIter::new(&[1, 2, 3, 4]);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn encode_str_skips_whitespace_and_reports_bad_bytes() {
        assert_eq!(encode_str("AR ND\n").unwrap().len(), 4);
        assert_eq!(encode_str("AR1D"), Err(b'1'));
    }

    #[test]
    fn decode_to_string_roundtrip() {
        let s = "MARNDWXYZV";
        // Z is a real letter here; roundtrip should be identity.
        let enc = encode_str(s).unwrap();
        assert_eq!(decode_to_string(&enc), s);
    }
}
