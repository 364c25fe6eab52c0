//! Corpus generation: sentence-pool based synthetic text.
//!
//! Real corpora compress well under TADOC because the same passages recur
//! within and across files.  The generator models that directly: a pool of
//! sentences (each a Zipfian word sequence) is generated once, and every file
//! is a mix of pool sentences (redundant content) and freshly drawn sentences
//! (novel content).  `redundancy` controls the mix and therefore the rule
//! sharing the compressed grammar exhibits.

use crate::rng::SplitMix64;
use crate::zipf::Zipf;
use sequitur::archive::TadocArchive;
use sequitur::compress::compress_token_files;
use sequitur::dictionary::Dictionary;
use sequitur::WordId;

/// Parameters of a synthetic corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Human-readable corpus name.
    pub name: String,
    /// Number of files.
    pub num_files: usize,
    /// Approximate tokens per file.
    pub tokens_per_file: usize,
    /// Vocabulary size (distinct words).
    pub vocabulary: usize,
    /// Zipf exponent of the unigram distribution.
    pub zipf_exponent: f64,
    /// Number of sentences in the shared pool.
    pub sentence_pool: usize,
    /// Words per sentence (average; actual length varies ±50%).
    pub sentence_length: usize,
    /// Probability that the next sentence of a file is drawn from the shared
    /// pool rather than generated fresh (0 = no redundancy, 1 = maximal).
    pub redundancy: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            name: "synthetic".to_string(),
            num_files: 8,
            tokens_per_file: 2_000,
            vocabulary: 2_000,
            zipf_exponent: 1.0,
            sentence_pool: 200,
            sentence_length: 8,
            redundancy: 0.8,
            seed: 0x5EED,
        }
    }
}

/// A generated corpus: token streams plus the synthetic dictionary.
#[derive(Debug, Clone)]
pub struct GeneratedCorpus {
    /// Corpus name.
    pub name: String,
    /// Per-file word-id streams.
    pub files: Vec<Vec<WordId>>,
    /// File names.
    pub file_names: Vec<String>,
    /// The dictionary (synthetic words `word000001`, …).
    pub dictionary: Dictionary,
}

impl GeneratedCorpus {
    /// Total token count across files.
    pub fn total_tokens(&self) -> usize {
        self.files.iter().map(|f| f.len()).sum()
    }

    /// Approximate uncompressed size in bytes (tokens × average word length,
    /// including separating spaces).
    pub fn approx_bytes(&self) -> u64 {
        let avg_word = 9u64; // "word%06d" plus a space
        self.total_tokens() as u64 * avg_word
    }

    /// Compresses the corpus into a TADOC archive.
    pub fn compress(&self) -> TadocArchive {
        let byte_sizes: Vec<u64> = self.files.iter().map(|f| f.len() as u64 * 9).collect();
        compress_token_files(
            self.dictionary.clone(),
            self.files.clone(),
            self.file_names.clone(),
            byte_sizes,
        )
    }
}

/// Generates a corpus from `config`.
pub fn generate(config: &CorpusConfig) -> GeneratedCorpus {
    assert!(config.vocabulary > 0 && config.num_files > 0);
    let mut rng = SplitMix64::new(config.seed);
    let zipf = Zipf::new(config.vocabulary, config.zipf_exponent);

    // Dictionary of synthetic words; index = rank so Zipf ranks map directly.
    let mut dictionary = Dictionary::with_capacity(config.vocabulary);
    for i in 0..config.vocabulary {
        dictionary.intern(&format!("word{i:06}"));
    }

    // Shared sentence pool.
    let mut pool: Vec<Vec<WordId>> = Vec::with_capacity(config.sentence_pool);
    for _ in 0..config.sentence_pool.max(1) {
        pool.push(make_sentence(&zipf, &mut rng, config.sentence_length));
    }

    let mut files = Vec::with_capacity(config.num_files);
    let mut file_names = Vec::with_capacity(config.num_files);
    for f in 0..config.num_files {
        let mut tokens: Vec<WordId> = Vec::with_capacity(config.tokens_per_file + 16);
        while tokens.len() < config.tokens_per_file {
            if rng.chance(config.redundancy) {
                let idx = rng.next_below(pool.len() as u64) as usize;
                tokens.extend_from_slice(&pool[idx]);
            } else {
                tokens.extend(make_sentence(&zipf, &mut rng, config.sentence_length));
            }
        }
        tokens.truncate(config.tokens_per_file);
        files.push(tokens);
        file_names.push(format!("{}_{f:05}.txt", config.name));
    }

    GeneratedCorpus {
        name: config.name.clone(),
        files,
        file_names,
        dictionary,
    }
}

fn make_sentence(zipf: &Zipf, rng: &mut SplitMix64, avg_len: usize) -> Vec<WordId> {
    let min_len = (avg_len / 2).max(1);
    let span = avg_len.max(1);
    let len = min_len + rng.next_below(span as u64) as usize;
    (0..len).map(|_| zipf.sample(rng) as WordId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = CorpusConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.files, b.files);
        assert_eq!(a.file_names, b.file_names);
    }

    #[test]
    fn respects_shape_parameters() {
        let cfg = CorpusConfig {
            num_files: 5,
            tokens_per_file: 500,
            vocabulary: 300,
            ..Default::default()
        };
        let corpus = generate(&cfg);
        assert_eq!(corpus.files.len(), 5);
        for f in &corpus.files {
            assert_eq!(f.len(), 500);
            assert!(f.iter().all(|&w| (w as usize) < 300));
        }
        assert_eq!(corpus.dictionary.len(), 300);
        assert_eq!(corpus.total_tokens(), 2_500);
        assert!(corpus.approx_bytes() > 0);
    }

    #[test]
    fn higher_redundancy_compresses_better() {
        let base = CorpusConfig {
            num_files: 6,
            tokens_per_file: 1_500,
            vocabulary: 800,
            ..Default::default()
        };
        let low = generate(&CorpusConfig {
            redundancy: 0.05,
            name: "low".into(),
            ..base.clone()
        });
        let high = generate(&CorpusConfig {
            redundancy: 0.95,
            name: "high".into(),
            ..base
        });
        let low_elems = low.compress().grammar.total_elements();
        let high_elems = high.compress().grammar.total_elements();
        assert!(
            high_elems < low_elems,
            "redundant corpus must compress to fewer elements ({high_elems} vs {low_elems})"
        );
    }

    #[test]
    fn compressed_archive_roundtrips() {
        let corpus = generate(&CorpusConfig {
            num_files: 3,
            tokens_per_file: 400,
            vocabulary: 150,
            ..Default::default()
        });
        let archive = corpus.compress();
        assert_eq!(archive.grammar.expand_files(), corpus.files);
        assert_eq!(archive.num_files(), 3);
    }
}
