//! Whitespace tokenization of input documents.
//!
//! TADOC operates at word granularity: documents are split on whitespace and
//! every resulting token becomes a dictionary entry.  The tokenizer optionally
//! folds case and strips surrounding punctuation, which keeps synthetic and
//! real corpora comparable without changing the compression behaviour.

use crate::dictionary::Dictionary;
use crate::WordId;

/// Tokenization options.
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenizerOptions {
    /// Lower-case every token before interning.
    pub lowercase: bool,
    /// Strip leading/trailing ASCII punctuation from every token.
    pub strip_punctuation: bool,
}

/// Splits `text` into tokens and interns each into `dict`, returning the id
/// stream for the document.
pub fn tokenize_into(text: &str, dict: &mut Dictionary, opts: TokenizerOptions) -> Vec<WordId> {
    let mut out = Vec::with_capacity(text.len() / 6 + 1);
    let mut scratch = String::new();
    for raw in text.split_whitespace() {
        let token = normalize(raw, opts, &mut scratch);
        if token.is_empty() {
            continue;
        }
        out.push(dict.intern(token));
    }
    out
}

fn normalize<'a>(raw: &'a str, opts: TokenizerOptions, scratch: &'a mut String) -> &'a str {
    let trimmed = if opts.strip_punctuation {
        raw.trim_matches(|c: char| c.is_ascii_punctuation())
    } else {
        raw
    };
    if opts.lowercase && trimmed.chars().any(|c| c.is_uppercase()) {
        scratch.clear();
        scratch.extend(trimmed.chars().flat_map(|c| c.to_lowercase()));
        scratch.as_str()
    } else {
        trimmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace() {
        let mut d = Dictionary::new();
        let ids = tokenize_into(
            "the quick  brown\tfox\nthe",
            &mut d,
            TokenizerOptions::default(),
        );
        assert_eq!(ids.len(), 5);
        assert_eq!(ids[0], ids[4], "repeated word reuses the same id");
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn lowercase_folding() {
        let mut d = Dictionary::new();
        let opts = TokenizerOptions {
            lowercase: true,
            ..Default::default()
        };
        let ids = tokenize_into("The THE the", &mut d, opts);
        assert_eq!(d.len(), 1);
        assert!(ids.iter().all(|&i| i == ids[0]));
    }

    #[test]
    fn punctuation_stripping() {
        let mut d = Dictionary::new();
        let opts = TokenizerOptions {
            strip_punctuation: true,
            ..Default::default()
        };
        let ids = tokenize_into("hello, world. (hello)", &mut d, opts);
        assert_eq!(d.len(), 2);
        assert_eq!(ids[0], ids[2]);
    }

    #[test]
    fn empty_and_punct_only_tokens_are_dropped() {
        let mut d = Dictionary::new();
        let opts = TokenizerOptions {
            strip_punctuation: true,
            ..Default::default()
        };
        let ids = tokenize_into("--- ... a", &mut d, opts);
        assert_eq!(ids.len(), 1);
        assert_eq!(d.word(ids[0]), "a");
    }
}
