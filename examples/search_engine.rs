//! A tiny search engine over compressed documents: builds an inverted index
//! and per-file term vectors directly on the compressed corpus (never
//! decompressing it), then answers keyword queries ranked by term frequency.
//!
//! This is the kind of downstream application the paper motivates: the
//! NSFRAA-like dataset A (thousands of small abstracts) indexed on the GPU.
//!
//! ```text
//! cargo run --release --example search_engine
//! ```

use g_tadoc_repro::prelude::*;

fn main() {
    println!("generating the NSFRAA-like dataset A (many small files) ...");
    let corpus = DatasetPreset::new(DatasetId::A).generate_scaled(0.15);
    let archive = corpus.compress();
    println!(
        "  {} files, {} tokens, {} rules\n",
        corpus.files.len(),
        corpus.total_tokens(),
        archive.grammar.num_rules()
    );

    // Build the index structures on the simulated GPU, directly on the
    // compressed data.
    let mut engine = GtadocEngine::new(GpuSpec::rtx_2080_ti());
    let index_exec = engine.run_archive(&archive, Task::InvertedIndex);
    let vectors_exec = engine.run_archive(&archive, Task::TermVector);
    let index = match &index_exec.output {
        AnalyticsOutput::InvertedIndex(idx) => idx.clone(),
        _ => unreachable!(),
    };
    let vectors = match &vectors_exec.output {
        AnalyticsOutput::TermVector(tv) => tv.clone(),
        _ => unreachable!(),
    };
    println!(
        "built inverted index ({} words, {} postings, strategy {}) and term vectors in {:.3} ms of modelled GPU time\n",
        index.len(),
        index.csr().data().len(),
        index_exec.strategy,
        (index_exec.total_seconds() + vectors_exec.total_seconds()) * 1e3
    );

    // Answer a few conjunctive queries: files containing every query word,
    // ranked by the sum of term frequencies.
    let queries = [
        vec!["word000000", "word000001"],
        vec!["word000002", "word000005", "word000007"],
        vec!["word000042"],
    ];
    for query in &queries {
        println!("query: {:?}", query);
        let ids: Vec<_> = query
            .iter()
            .filter_map(|w| archive.dictionary.get(w))
            .collect();
        if ids.len() != query.len() {
            println!("  (a query word is not in the corpus)\n");
            continue;
        }
        // Intersect posting lists: a word's row of the inverted index.
        let mut candidates: Vec<u32> = index.get(&[ids[0]]).to_vec();
        for &w in &ids[1..] {
            let postings = index.get(&[w]);
            candidates.retain(|f| postings.binary_search(f).is_ok());
        }
        // Rank by summed term frequency: file `f`'s row of the term
        // vectors holds its `(word, count)` pairs, ascending by word.
        let frequency = |f: u32, w: u32| {
            let row = vectors.csr().row(f as usize);
            row.binary_search_by_key(&w, |&(word, _)| word)
                .map_or(0, |i| row[i].1)
        };
        let mut ranked: Vec<(u32, u64)> = candidates
            .into_iter()
            .map(|f| (f, ids.iter().map(|&w| frequency(f, w)).sum()))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (file, score) in ranked.iter().take(5) {
            println!(
                "  {:<24} score {}",
                corpus.file_names[*file as usize], score
            );
        }
        println!("  ({} matching files)\n", ranked.len());
    }
}
