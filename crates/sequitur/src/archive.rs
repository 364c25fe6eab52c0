//! The TADOC compressed archive and its binary serialization.
//!
//! An archive bundles the dictionary, the grammar, and per-file metadata —
//! everything an analytics engine needs to process the corpus without
//! decompression.  The on-disk format is a simple self-describing
//! little-endian layout (no external serialization dependency).

use crate::csr::Csr;
use crate::dictionary::Dictionary;
use crate::grammar::{Grammar, SymbolScan};
use crate::symbol::Symbol;
use crate::{Error, Result};

/// Magic bytes identifying an archive file.
pub const MAGIC: &[u8; 8] = b"GTADOC01";
/// Current format version.
pub const VERSION: u32 = 1;

/// Metadata about one compressed input file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Original file name.
    pub name: String,
    /// Number of word tokens in the original file.
    pub token_count: u64,
    /// Original size in bytes (0 if unknown).
    pub byte_size: u64,
}

/// A complete TADOC compressed archive.
#[derive(Debug, Clone)]
pub struct TadocArchive {
    /// Word ⇄ id dictionary.
    pub dictionary: Dictionary,
    /// The compressed grammar.
    pub grammar: Grammar,
    /// Per-file metadata, in root order.
    pub files: Vec<FileMeta>,
}

impl TadocArchive {
    /// Number of input files.
    pub fn num_files(&self) -> usize {
        self.files.len()
    }

    /// Vocabulary size (number of distinct words).
    pub fn vocabulary_size(&self) -> usize {
        self.dictionary.len()
    }

    /// Decompresses the archive back into `(name, text)` pairs, joining words
    /// with single spaces (word-level losslessness, as in TADOC).
    pub fn decompress_files(&self) -> Vec<(String, String)> {
        let expanded = self.grammar.expand_files();
        expanded
            .into_iter()
            .enumerate()
            .map(|(i, words)| {
                let name = self
                    .files
                    .get(i)
                    .map(|m| m.name.clone())
                    .unwrap_or_else(|| format!("file{i}"));
                let text = words
                    .iter()
                    .map(|&w| self.dictionary.word(w))
                    .collect::<Vec<_>>()
                    .join(" ");
                (name, text)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // binary serialization
    // ------------------------------------------------------------------

    /// Serializes the archive into a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.compressed_size_bytes());
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);

        // Dictionary.
        let words = self.dictionary.words();
        put_u32(&mut out, words.len() as u32);
        for w in words {
            put_str(&mut out, w);
        }

        // Files.
        put_u32(&mut out, self.files.len() as u32);
        for f in &self.files {
            put_str(&mut out, &f.name);
            put_u64(&mut out, f.token_count);
            put_u64(&mut out, f.byte_size);
        }

        // Grammar.
        put_u32(&mut out, self.grammar.num_rules() as u32);
        for body in self.grammar.rules() {
            put_u32(&mut out, body.len() as u32);
            for sym in body {
                put_u32(&mut out, sym.encode());
            }
        }
        debug_assert_eq!(out.len(), self.compressed_size_bytes());
        out
    }

    /// Deserializes an archive previously produced by [`TadocArchive::to_bytes`].
    ///
    /// Total on arbitrary bytes: every outcome is `Ok` of a
    /// [validated](Self::validate) archive or a typed [`Error`], never a
    /// panic, and no count read from the input is allocated for before it is
    /// bounded by the bytes that remain.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut cur = Cursor { buf: bytes, pos: 0 };
        let magic = cur.take(8)?;
        if magic != MAGIC {
            return Err(Error::Corrupt("bad magic".into()));
        }
        let version = cur.u32()?;
        if version != VERSION {
            return Err(Error::Corrupt(format!("unsupported version {version}")));
        }

        // Each `count(n)` argument is the smallest encoding of one element:
        // a string is at least its `u32` length prefix.
        let word_count = cur.count(4)?;
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            words.push(cur.string()?);
        }
        let dictionary = Dictionary::from_words(words);

        let file_count = cur.count(4 + 8 + 8)?;
        let mut files = Vec::with_capacity(file_count);
        for _ in 0..file_count {
            let name = cur.string()?;
            let token_count = cur.u64()?;
            let byte_size = cur.u64()?;
            files.push(FileMeta {
                name,
                token_count,
                byte_size,
            });
        }

        // The grammar goes straight into its flat columns, and every symbol
        // is checked as it is decoded.  What remains after the rule count is
        // one length word per rule plus the symbols (exactly, for a
        // well-formed archive), which bounds the symbol column.
        let rule_count = cur.count(4)?;
        let mut bodies =
            Csr::with_capacity(rule_count, (cur.remaining() / 4).saturating_sub(rule_count));
        let mut scan = SymbolScan::default();
        for rule in 0..rule_count {
            let len = cur.count(4)?;
            let encoded = cur
                .take(4 * len)?
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            scan.visit(rule, encoded.clone().map(Symbol::encoded_parts), rule_count);
            for raw in encoded {
                let sym = Symbol::try_decode(raw)
                    .ok_or_else(|| Error::Corrupt(format!("invalid symbol tag in 0x{raw:08x}")))?;
                bodies.push(sym);
            }
            if bodies.data().len() > u32::MAX as usize {
                return Err(Error::Corrupt(
                    "grammar holds more than u32::MAX symbols".into(),
                ));
            }
            bodies.end_row();
        }

        let archive = Self {
            dictionary,
            grammar: Grammar::from_scanned(bodies, scan),
            files,
        };
        archive.validate()?;
        Ok(archive)
    }

    /// Validates everything a traversal indexes by: the grammar's structure
    /// ([`Grammar::validate`]: rule references in range, splitters only in
    /// the root, no cycle) and every word id against the dictionary.  An
    /// out-of-range word id would index past the per-word tables the
    /// analytics tasks size by the vocabulary.
    ///
    /// The grammar computes its verdict and its largest word id once, so
    /// this is two cache reads — and it stays sound when a caller replaces
    /// `dictionary` or `grammar` after loading.
    pub fn validate(&self) -> Result<()> {
        self.grammar.validate()?;
        let vocabulary = self.dictionary.len();
        match self.grammar.max_word() {
            Some((w, rule)) if w as usize >= vocabulary => Err(Error::InvalidReference(format!(
                "rule {rule} references word {w} but the dictionary holds {vocabulary} words"
            ))),
            _ => Ok(()),
        }
    }

    /// Size of the serialized archive in bytes, computed from the lengths
    /// [`to_bytes`](Self::to_bytes) writes.
    pub fn compressed_size_bytes(&self) -> usize {
        let header = MAGIC.len() + 4;
        let dictionary = 4 + self
            .dictionary
            .words()
            .iter()
            .map(|w| 4 + w.len())
            .sum::<usize>();
        let files = 4 + self
            .files
            .iter()
            .map(|f| 4 + f.name.len() + 8 + 8)
            .sum::<usize>();
        let grammar = 4 + 4 * (self.grammar.num_rules() + self.grammar.total_elements());
        header + dictionary + files + grammar
    }

    /// Total size of the original corpus in bytes (sum of recorded file sizes).
    pub fn original_size_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.byte_size).sum()
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(Error::Corrupt(format!(
                "unexpected end of archive at offset {}",
                self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u32` element count and bounds it by the bytes that remain:
    /// `count` elements of at least `min_element_bytes` each must still fit,
    /// so a hostile count can never size an allocation past the input.
    fn count(&mut self, min_element_bytes: usize) -> Result<usize> {
        let count = self.u32()? as usize;
        if count > self.remaining() / min_element_bytes {
            return Err(Error::Corrupt(format!(
                "count {count} at offset {} exceeds the {} bytes that remain",
                self.pos - 4,
                self.remaining()
            )));
        }
        Ok(count)
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Corrupt("invalid utf-8 in string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress_corpus, CompressOptions};

    fn sample_archive() -> TadocArchive {
        compress_corpus(
            &[
                (
                    "a.txt".to_string(),
                    "the cat sat on the mat the cat".to_string(),
                ),
                ("b.txt".to_string(), "the cat ran on the mat".to_string()),
            ],
            CompressOptions::default(),
        )
    }

    #[test]
    fn serialization_roundtrip() {
        let archive = sample_archive();
        let bytes = archive.to_bytes();
        let restored = TadocArchive::from_bytes(&bytes).expect("valid archive");
        assert_eq!(restored.grammar, archive.grammar);
        assert_eq!(restored.files, archive.files);
        assert_eq!(restored.dictionary.len(), archive.dictionary.len());
        assert_eq!(restored.decompress_files(), archive.decompress_files());
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let mut bytes = sample_archive().to_bytes();
        bytes[0] = b'X';
        assert!(TadocArchive::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_archive_is_rejected() {
        let bytes = sample_archive().to_bytes();
        for cut in [4usize, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                TadocArchive::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn size_accessors() {
        let archive = sample_archive();
        assert!(archive.compressed_size_bytes() > 16);
        assert_eq!(archive.original_size_bytes(), (30 + 22) as u64);
        assert_eq!(archive.num_files(), 2);
        assert_eq!(archive.vocabulary_size(), 6);
    }

    #[test]
    fn compressed_size_is_the_serialized_length() {
        let empty_root = compress_corpus(
            &[("e".to_string(), String::new())],
            CompressOptions::default(),
        );
        assert!(empty_root.grammar.root().is_empty());
        for archive in [sample_archive(), empty_root] {
            assert_eq!(archive.compressed_size_bytes(), archive.to_bytes().len());
        }
    }

    #[test]
    fn decompress_preserves_word_sequence() {
        let archive = sample_archive();
        let files = archive.decompress_files();
        assert_eq!(files[0].1, "the cat sat on the mat the cat");
        assert_eq!(files[1].1, "the cat ran on the mat");
    }
}
