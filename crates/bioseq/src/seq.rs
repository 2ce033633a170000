//! Owned, encoded protein sequences.

use crate::alphabet;
use std::fmt;

/// Index of a sequence within a [`crate::db::SequenceDb`].
pub type SequenceId = u32;

/// An owned protein sequence with its FASTA header.
///
/// Residues are stored encoded (`0..24`, see [`crate::alphabet`]); the ASCII
/// form is materialised only on demand.
#[derive(Clone, PartialEq, Eq)]
pub struct Sequence {
    /// Accession / identifier (first whitespace-delimited token of the
    /// FASTA header).
    pub id: String,
    /// Remainder of the FASTA header, if any.
    pub description: String,
    /// Encoded residues.
    residues: Vec<u8>,
}

impl Sequence {
    /// Build a sequence from already-encoded residues.
    ///
    /// # Panics
    /// Panics (in debug builds) if any residue code is out of range.
    pub fn from_encoded(id: impl Into<String>, residues: Vec<u8>) -> Self {
        debug_assert!(
            residues.iter().all(|&r| (r as usize) < alphabet::ALPHABET_SIZE),
            "residue code out of range"
        );
        Sequence { id: id.into(), description: String::new(), residues }
    }

    /// Parse a sequence from an ASCII string (whitespace ignored).
    pub fn from_str_checked(id: impl Into<String>, ascii: &str) -> Result<Self, u8> {
        Ok(Self::from_encoded(id, alphabet::encode_str(ascii)?))
    }

    /// Attach a description (the FASTA header after the first token).
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// The encoded residues.
    #[inline]
    pub fn residues(&self) -> &[u8] {
        &self.residues
    }

    /// Sequence length in residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// ASCII rendering of the residues.
    pub(crate) fn to_ascii(&self) -> String {
        alphabet::decode_to_string(&self.residues)
    }
}

impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sequence({}, len={})", self.id, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_str_and_back() {
        let s = Sequence::from_str_checked("sp|P1", "MARND").unwrap();
        assert_eq!(s.to_ascii(), "MARND");
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn description_attached() {
        let s = Sequence::from_str_checked("q", "MA")
            .unwrap()
            .with_description("test protein");
        assert_eq!(s.description, "test protein");
    }

    #[test]
    fn bad_residue_propagates() {
        assert!(Sequence::from_str_checked("q", "MA7").is_err());
    }
}
