//! Dictionary conversion: bidirectional word ⇄ integer mapping.
//!
//! TADOC's first compression step (Figure 1 (b)) replaces every word with a
//! small integer.  The dictionary is part of the compressed archive and is
//! needed to print human-readable analytics results.

use std::sync::OnceLock;

use crate::fxhash::FxHashMap;
use crate::WordId;

/// Bidirectional mapping between words and dense integer ids.
///
/// The id → word direction is the word list itself.  The word → id index is
/// built on first use: the write path ([`intern`](Self::intern)) keeps it
/// from the start, a decoded dictionary builds it only if a lookup asks.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    words: Vec<String>,
    index: OnceLock<FxHashMap<String, WordId>>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a dictionary with capacity for `n` distinct words.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            words: Vec::with_capacity(n),
            index: OnceLock::from(FxHashMap::with_capacity_and_hasher(n, Default::default())),
        }
    }

    fn ids_by_word(&self) -> &FxHashMap<String, WordId> {
        self.index.get_or_init(|| {
            let mut index =
                FxHashMap::with_capacity_and_hasher(self.words.len(), Default::default());
            for (i, w) in self.words.iter().enumerate() {
                index.insert(w.clone(), i as WordId);
            }
            index
        })
    }

    /// Interns `word`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, word: &str) -> WordId {
        if self.index.get_mut().is_none() {
            self.ids_by_word();
        }
        let index = self.index.get_mut().expect("filled just above");
        if let Some(&id) = index.get(word) {
            return id;
        }
        let id = self.words.len() as WordId;
        self.words.push(word.to_string());
        index.insert(word.to_string(), id);
        id
    }

    /// Looks up the id of `word` without inserting.
    pub fn get(&self, word: &str) -> Option<WordId> {
        self.ids_by_word().get(word).copied()
    }

    /// Returns the word for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn word(&self, id: WordId) -> &str {
        &self.words[id as usize]
    }

    /// Number of distinct words (the paper's "vocabulary size").
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` if no word has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterates over `(id, word)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (WordId, &str)> {
        self.words
            .iter()
            .enumerate()
            .map(|(i, w)| (i as WordId, w.as_str()))
    }

    /// Rebuilds a dictionary from an ordered word list (used by
    /// deserialization).  The word → id index waits for the first lookup.
    pub fn from_words(words: Vec<String>) -> Self {
        Self {
            words,
            index: OnceLock::new(),
        }
    }

    /// Borrow the ordered word list (used by serialization).
    pub fn words(&self) -> &[String] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_ids() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("alpha"), 0);
        assert_eq!(d.intern("beta"), 1);
        assert_eq!(d.intern("alpha"), 0);
        assert_eq!(d.intern("gamma"), 2);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn lookup_roundtrip() {
        let mut d = Dictionary::new();
        let id = d.intern("tadoc");
        assert_eq!(d.word(id), "tadoc");
        assert_eq!(d.get("tadoc"), Some(id));
        assert_eq!(d.get("missing"), None);
    }

    #[test]
    fn from_words_rebuilds_index() {
        let d = Dictionary::from_words(vec!["a".into(), "b".into(), "c".into()]);
        assert_eq!(d.get("b"), Some(1));
        assert_eq!(d.word(2), "c");
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn interning_into_a_decoded_dictionary_sees_its_words() {
        let mut d = Dictionary::from_words(vec!["a".into(), "b".into()]);
        assert_eq!(d.intern("b"), 1);
        assert_eq!(d.intern("c"), 2);
        assert_eq!(d.get("c"), Some(2));
    }

    #[test]
    fn iter_in_id_order() {
        let mut d = Dictionary::new();
        d.intern("x");
        d.intern("y");
        let collected: Vec<_> = d.iter().map(|(i, w)| (i, w.to_string())).collect();
        assert_eq!(collected, vec![(0, "x".to_string()), (1, "y".to_string())]);
    }
}
