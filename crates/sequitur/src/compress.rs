//! End-to-end TADOC compression: documents → dictionary conversion → splitter
//! insertion → Sequitur → [`TadocArchive`].

use std::sync::mpsc;

use crate::archive::{FileMeta, TadocArchive};
use crate::dictionary::Dictionary;
use crate::sequitur_impl::Sequitur;
use crate::symbol::{Symbol, MAX_PAYLOAD};
use crate::tokenizer::{tokenize_into, TokenizerOptions};
use crate::WordId;

/// Files the tokenizer thread may run ahead of Sequitur.
const FILES_IN_FLIGHT: usize = 64;

/// Options controlling compression.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompressOptions {
    /// Tokenizer behaviour (case folding, punctuation stripping).
    pub tokenizer: TokenizerOptions,
}

/// Compresses an in-memory corpus of `(file name, file content)` pairs.
///
/// A scoped second thread tokenizes the files in order and sends each
/// file's word ids over a bounded channel, while the calling thread pushes
/// them into Sequitur.  Words are interned in file order, as a serial pass
/// would intern them, so the archive is the one [`compress_token_files`]
/// builds from the same tokens.
pub fn compress_corpus(files: &[(String, String)], opts: CompressOptions) -> TadocArchive {
    let mut builder = GrammarBuilder::new(files.len(), 0);
    let (tx, rx) = mpsc::sync_channel::<Vec<WordId>>(FILES_IN_FLIGHT);
    let dictionary = std::thread::scope(|scope| {
        let tokenizer = scope.spawn(move || {
            let mut dict = Dictionary::new();
            for (_, content) in files {
                let tokens = tokenize_into(content, &mut dict, opts.tokenizer);
                // The receiver hangs up only if Sequitur panicked.
                if tx.send(tokens).is_err() {
                    break;
                }
            }
            dict
        });
        for tokens in rx {
            builder.push_file(&tokens);
        }
        tokenizer
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    });
    let names = files.iter().map(|(name, _)| name.clone()).collect();
    let sizes = files
        .iter()
        .map(|(_, content)| content.len() as u64)
        .collect();
    builder.finish(dictionary, names, sizes)
}

/// Compresses files already converted to word-id streams (the path used by the
/// synthetic dataset generators, which produce token ids directly).
pub fn compress_token_files(
    dictionary: Dictionary,
    token_files: Vec<Vec<WordId>>,
    names: Vec<String>,
    original_byte_sizes: Vec<u64>,
) -> TadocArchive {
    assert_eq!(token_files.len(), names.len());
    let total_tokens: usize = token_files.iter().map(|f| f.len()).sum();
    let mut builder = GrammarBuilder::new(token_files.len(), total_tokens);
    for tokens in &token_files {
        builder.push_file(tokens);
    }
    builder.finish(dictionary, names, original_byte_sizes)
}

/// The grammar half both entry points share: each file's words, then a
/// unique splitter after every file but the last, exactly as in Figure 1 of
/// the paper (R0: ... spt1 ...).
struct GrammarBuilder {
    seq: Sequitur,
    files: usize,
    token_counts: Vec<u64>,
}

impl GrammarBuilder {
    /// A builder for `files` files of about `tokens` tokens in total.
    fn new(files: usize, tokens: usize) -> Self {
        Self {
            seq: Sequitur::with_capacity(tokens + files),
            files,
            token_counts: Vec::with_capacity(files),
        }
    }

    fn push_file(&mut self, tokens: &[WordId]) {
        self.seq.push_words(tokens);
        let i = self.token_counts.len();
        if i + 1 < self.files {
            self.seq.push(Symbol::Splitter(i as u32));
        }
        self.token_counts.push(tokens.len() as u64);
    }

    fn finish(
        self,
        dictionary: Dictionary,
        names: Vec<String>,
        original_byte_sizes: Vec<u64>,
    ) -> TadocArchive {
        assert_eq!(self.token_counts.len(), self.files);
        assert!(
            dictionary.len() as u64 + self.files as u64 <= MAX_PAYLOAD as u64,
            "vocabulary plus splitter count exceeds the 30-bit symbol payload"
        );
        let files = names
            .into_iter()
            .zip(self.token_counts)
            .enumerate()
            .map(|(i, (name, token_count))| FileMeta {
                name,
                token_count,
                byte_size: original_byte_sizes.get(i).copied().unwrap_or(0),
            })
            .collect();
        TadocArchive {
            dictionary,
            grammar: self.seq.into_grammar(),
            files,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus() -> Vec<(String, String)> {
        vec![
            (
                "fileA".to_string(),
                "w1 w2 w3 w1 w2 w4 w1 w2 w3 w1 w2 w4".to_string(),
            ),
            ("fileB".to_string(), "w1 w2 w1".to_string()),
        ]
    }

    #[test]
    fn roundtrip_through_compression() {
        let archive = compress_corpus(&sample_corpus(), CompressOptions::default());
        assert_eq!(archive.files.len(), 2);
        let decompressed = archive.decompress_files();
        assert_eq!(decompressed[0].1, "w1 w2 w3 w1 w2 w4 w1 w2 w3 w1 w2 w4");
        assert_eq!(decompressed[1].1, "w1 w2 w1");
        assert_eq!(decompressed[0].0, "fileA");
    }

    #[test]
    fn file_metadata_is_preserved() {
        let archive = compress_corpus(&sample_corpus(), CompressOptions::default());
        assert_eq!(archive.files[0].token_count, 12);
        assert_eq!(archive.files[1].token_count, 3);
        assert_eq!(archive.files[0].name, "fileA");
        assert!(archive.files[0].byte_size > 0);
    }

    #[test]
    fn grammar_validates_and_shares_rules() {
        let archive = compress_corpus(&sample_corpus(), CompressOptions::default());
        archive.grammar.validate().expect("grammar must be valid");
        assert!(
            archive.grammar.num_rules() >= 2,
            "redundant corpus should produce shared rules"
        );
        assert_eq!(archive.grammar.expand_files().len(), 2);
    }

    #[test]
    fn single_file_corpus() {
        let corpus = vec![("only".to_string(), "a b a b a b".to_string())];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        assert_eq!(archive.grammar.expand_files().len(), 1);
        assert_eq!(archive.decompress_files()[0].1, "a b a b a b");
    }

    #[test]
    fn empty_files_are_handled() {
        let corpus = vec![
            ("empty".to_string(), "".to_string()),
            ("nonempty".to_string(), "x y".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        assert_eq!(archive.files.len(), 2);
        let files = archive.grammar.expand_files();
        assert_eq!(files.len(), 2);
        assert!(files[0].is_empty());
        assert_eq!(files[1].len(), 2);
    }

    #[test]
    fn many_files_share_vocabulary() {
        let corpus: Vec<(String, String)> = (0..20)
            .map(|i| {
                (
                    format!("f{i}"),
                    "common words repeated across files".to_string(),
                )
            })
            .collect();
        let archive = compress_corpus(&corpus, CompressOptions::default());
        assert_eq!(archive.dictionary.len(), 5);
        assert_eq!(archive.grammar.expand_files().len(), 20);
        // Identical files must compress extremely well.
        assert!(archive.grammar.total_elements() < 20 * 5);
    }

    #[test]
    fn compress_token_files_direct_path() {
        let mut dict = Dictionary::new();
        for w in ["a", "b", "c"] {
            dict.intern(w);
        }
        let archive = compress_token_files(
            dict,
            vec![vec![0, 1, 2, 0, 1, 2], vec![0, 1, 0, 1]],
            vec!["t0".into(), "t1".into()],
            vec![11, 7],
        );
        let files = archive.grammar.expand_files();
        assert_eq!(files[0], vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(files[1], vec![0, 1, 0, 1]);
        assert_eq!(archive.files[1].byte_size, 7);
    }
}
