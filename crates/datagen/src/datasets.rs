//! The five evaluation-dataset presets (Table II shapes), with a scale knob.
//!
//! The paper's corpora range from 62 MB to 50 GB; this reproduction scales
//! them down so the full experiment grid runs on one machine, while keeping
//! the *relative* shapes that drive TADOC/G-TADOC behaviour: file count,
//! vocabulary size, redundancy, and single- versus multi-file structure.
//! Dataset C keeps its "large dataset" role: its runs are configured with
//! PCIe staging and it is the dataset compared against the 10-node cluster.

use crate::corpus::{generate, CorpusConfig, GeneratedCorpus};

/// Identifier of one of the paper's five datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetId {
    /// NSF Research Award Abstracts: many small files.
    A,
    /// Four Wikipedia web documents.
    B,
    /// Large Wikipedia dump (the cluster / PCIe dataset).
    C,
    /// Yelp COVID-19 reviews: one small file.
    D,
    /// DBLP records: one large structured file.
    E,
}

impl DatasetId {
    /// All five datasets in paper order.
    pub const ALL: [DatasetId; 5] = [
        DatasetId::A,
        DatasetId::B,
        DatasetId::C,
        DatasetId::D,
        DatasetId::E,
    ];

    /// Single-letter label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            DatasetId::A => "A",
            DatasetId::B => "B",
            DatasetId::C => "C",
            DatasetId::D => "D",
            DatasetId::E => "E",
        }
    }

    /// The real-world corpus this preset imitates.
    pub fn description(self) -> &'static str {
        match self {
            DatasetId::A => "NSF Research Award Abstracts (many small files)",
            DatasetId::B => "Four Wikipedia web documents",
            DatasetId::C => "Large Wikipedia dump (PCIe + cluster dataset)",
            DatasetId::D => "Yelp COVID-19 reviews (single small file)",
            DatasetId::E => "DBLP records (single large structured file)",
        }
    }

    /// Whether the paper treats this dataset as "large" (stored on disk, PCIe
    /// transfer included in measurements, cluster baseline used).
    pub fn is_large(self) -> bool {
        matches!(self, DatasetId::C)
    }
}

/// A dataset preset: the corpus configuration at scale 1.0.
#[derive(Debug, Clone)]
pub struct DatasetPreset {
    /// Which dataset this is.
    pub id: DatasetId,
    /// The corpus configuration (before scaling).
    pub config: CorpusConfig,
}

impl DatasetPreset {
    /// The preset for `id`.
    pub fn new(id: DatasetId) -> Self {
        let config = match id {
            DatasetId::A => CorpusConfig {
                name: "nsfraa".into(),
                num_files: 1_200,
                tokens_per_file: 90,
                vocabulary: 12_000,
                zipf_exponent: 1.05,
                // A small pool gives the strong cross-file duplication of the
                // NSFRAA abstracts: each shared passage recurs in dozens of
                // files, which is what makes per-rule file information (the
                // top-down buffers) expensive on this dataset (§VI-C).
                sentence_pool: 180,
                sentence_length: 9,
                redundancy: 0.9,
                seed: 0xA,
            },
            DatasetId::B => CorpusConfig {
                name: "wiki4".into(),
                num_files: 4,
                tokens_per_file: 60_000,
                vocabulary: 25_000,
                zipf_exponent: 1.0,
                sentence_pool: 2_500,
                sentence_length: 10,
                redundancy: 0.8,
                seed: 0xB,
            },
            DatasetId::C => CorpusConfig {
                name: "wiki_large".into(),
                num_files: 48,
                tokens_per_file: 24_000,
                vocabulary: 50_000,
                zipf_exponent: 1.0,
                sentence_pool: 6_000,
                sentence_length: 10,
                redundancy: 0.8,
                seed: 0xC,
            },
            DatasetId::D => CorpusConfig {
                name: "yelp_covid".into(),
                num_files: 1,
                tokens_per_file: 45_000,
                vocabulary: 6_000,
                zipf_exponent: 1.1,
                sentence_pool: 600,
                sentence_length: 7,
                redundancy: 0.9,
                seed: 0xD,
            },
            DatasetId::E => CorpusConfig {
                name: "dblp".into(),
                num_files: 1,
                tokens_per_file: 180_000,
                vocabulary: 30_000,
                zipf_exponent: 0.95,
                sentence_pool: 4_000,
                sentence_length: 6,
                redundancy: 0.88,
                seed: 0xE,
            },
        };
        Self { id, config }
    }

    /// Generates the corpus at `scale` (1.0 = the default reproduction size;
    /// smaller values shrink token counts, file counts and vocabulary
    /// proportionally — used by unit tests and quick benchmark runs).
    pub fn generate_scaled(&self, scale: f64) -> GeneratedCorpus {
        assert!(scale > 0.0, "scale must be positive");
        let mut cfg = self.config.clone();
        // File count is part of a dataset's identity (B is "4 web documents",
        // D and E are single files); only the many-file datasets scale it.
        if cfg.num_files > 8 {
            cfg.num_files = scale_count(cfg.num_files, scale.sqrt()).max(8);
        }
        cfg.tokens_per_file = scale_count(cfg.tokens_per_file, scale.sqrt());
        cfg.vocabulary = scale_count(cfg.vocabulary, scale.sqrt()).max(64);
        cfg.sentence_pool = scale_count(cfg.sentence_pool, scale.sqrt()).max(16);
        generate(&cfg)
    }

    /// Generates the corpus at full reproduction scale.
    pub fn generate(&self) -> GeneratedCorpus {
        self.generate_scaled(1.0)
    }
}

fn scale_count(value: usize, factor: f64) -> usize {
    ((value as f64 * factor).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_generate() {
        for id in DatasetId::ALL {
            let preset = DatasetPreset::new(id);
            let corpus = preset.generate_scaled(0.02);
            assert!(corpus.total_tokens() > 0, "{id:?}");
            assert!(!corpus.files.is_empty());
            assert_eq!(corpus.files.len(), corpus.file_names.len());
        }
    }

    #[test]
    fn dataset_shapes_match_table_2_qualitatively() {
        let a = DatasetPreset::new(DatasetId::A);
        let b = DatasetPreset::new(DatasetId::B);
        let d = DatasetPreset::new(DatasetId::D);
        let e = DatasetPreset::new(DatasetId::E);
        // A has by far the most files; B has exactly 4; D and E are single-file.
        assert!(a.config.num_files > 100 * b.config.num_files);
        assert_eq!(b.config.num_files, 4);
        assert_eq!(d.config.num_files, 1);
        assert_eq!(e.config.num_files, 1);
        // E is much larger than D, as in the paper (2.9 GB vs 62 MB).
        assert!(e.config.tokens_per_file > 3 * d.config.tokens_per_file);
        // Only C is the "large" dataset.
        assert!(DatasetId::C.is_large());
        assert!(!DatasetId::B.is_large());
    }

    #[test]
    fn scaling_shrinks_the_corpus() {
        let preset = DatasetPreset::new(DatasetId::B);
        let small = preset.generate_scaled(0.01);
        let larger = preset.generate_scaled(0.05);
        assert!(small.total_tokens() < larger.total_tokens());
    }

    #[test]
    fn labels_and_descriptions() {
        assert_eq!(DatasetId::A.label(), "A");
        assert_eq!(DatasetId::ALL.len(), 5);
        for id in DatasetId::ALL {
            assert!(!id.description().is_empty());
        }
    }

    #[test]
    fn generated_corpora_compress_and_roundtrip() {
        let corpus = DatasetPreset::new(DatasetId::D).generate_scaled(0.05);
        let archive = corpus.compress();
        assert_eq!(archive.grammar.expand_files(), corpus.files);
        assert!(
            archive.grammar.num_rules() > 1,
            "redundancy must create rules"
        );
    }
}
