//! Sequence-sensitive analytics: counts 3-word sequences (the paper's
//! sequence count task) and builds a ranked inverted index of phrases on the
//! DBLP-like dataset E, exercising the head/tail sequence support that lets
//! G-TADOC avoid re-scanning repeated passages.
//!
//! ```text
//! cargo run --release --example ngram_sequences
//! ```

use g_tadoc_repro::prelude::*;

fn main() {
    println!("generating the DBLP-like dataset E (one large structured file) ...");
    let corpus = DatasetPreset::new(DatasetId::E).generate_scaled(0.1);
    let archive = corpus.compress();
    println!(
        "  {} tokens compressed into {} grammar elements ({:.1}x reuse)\n",
        corpus.total_tokens(),
        archive.grammar.total_elements(),
        corpus.total_tokens() as f64 / archive.grammar.total_elements() as f64
    );

    let params = GtadocParams {
        sequence_length: 3,
        ..Default::default()
    };
    let mut engine = GtadocEngine::with_params(GpuSpec::tesla_v100(), params);

    // Sequence count: most frequent trigrams in the corpus.
    let sc = engine.run_archive(&archive, Task::SequenceCount);
    if let AnalyticsOutput::SequenceCount(result) = &sc.output {
        println!(
            "sequence count found {} distinct trigrams in {:.3} ms of modelled GPU time",
            result.len(),
            sc.total_seconds() * 1e3
        );
        let mut top: Vec<(&[u32], u64)> = result.iter().collect();
        top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        println!("most frequent trigrams:");
        for (seq, count) in top.into_iter().take(8) {
            let words: Vec<&str> = seq.iter().map(|&w| archive.dictionary.word(w)).collect();
            println!("  {:<40} {count}", words.join(" "));
        }
    }

    // Ranked inverted index: which files contain a given phrase, ranked by
    // in-file frequency (on a multi-file corpus).
    println!("\nbuilding a phrase index over the Wikipedia-like dataset B ...");
    let corpus_b = DatasetPreset::new(DatasetId::B).generate_scaled(0.1);
    let archive_b = corpus_b.compress();
    let rii = engine.run_archive(&archive_b, Task::RankedInvertedIndex);
    if let AnalyticsOutput::RankedInvertedIndex(result) = &rii.output {
        println!(
            "indexed {} distinct trigram phrases in {:.3} ms of modelled GPU time",
            result.len(),
            rii.total_seconds() * 1e3
        );
        // Look up the most widely shared phrase.
        let best = result
            .iter()
            .max_by_key(|(_, files)| files.len())
            .expect("non-empty index");
        let words: Vec<&str> = best
            .0
            .iter()
            .map(|&w| archive_b.dictionary.word(w))
            .collect();
        println!(
            "phrase appearing in the most files: \"{}\"",
            words.join(" ")
        );
        for (file, count) in best.1.iter().take(4) {
            println!(
                "  {:<24} {} occurrences",
                corpus_b.file_names[*file as usize], count
            );
        }
    }

    // The CPU baseline agrees (verification).
    let dag = Dag::from_grammar(&archive_b.grammar);
    let cpu = run_task(
        &archive_b,
        &dag,
        Task::RankedInvertedIndex,
        TaskConfig::default(),
    );
    assert_eq!(*cpu.output, rii.output);
    println!("\nCPU TADOC baseline produces identical results ✔");
}
