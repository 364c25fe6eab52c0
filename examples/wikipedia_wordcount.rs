//! Wikipedia-style word count: generates the dataset-B shape (four large web
//! documents with long shared passages), compresses it once, and compares
//! three ways of answering "what are the most frequent words?":
//!
//! 1. the uncompressed CPU oracle,
//! 2. CPU TADOC (analytics directly on compression),
//! 3. G-TADOC on a simulated GPU.
//!
//! ```text
//! cargo run --release --example wikipedia_wordcount
//! ```

use g_tadoc_repro::prelude::*;
use std::time::Instant;

fn main() {
    let scale = 0.2;
    println!("generating the Wikipedia-like dataset B at scale {scale} ...");
    let corpus = DatasetPreset::new(DatasetId::B).generate_scaled(scale);
    println!(
        "  {} files, {} tokens, vocabulary {}",
        corpus.files.len(),
        corpus.total_tokens(),
        corpus.dictionary.len()
    );

    let t = Instant::now();
    let archive = corpus.compress();
    println!(
        "compressed in {:.2?}: {} rules, {} elements ({:.1}x token reduction)\n",
        t.elapsed(),
        archive.grammar.num_rules(),
        archive.grammar.total_elements(),
        corpus.total_tokens() as f64 / archive.grammar.total_elements() as f64
    );

    // 1. Uncompressed oracle.
    let t = Instant::now();
    let oracle = tadoc::oracle::sort(&corpus.files);
    let oracle_time = t.elapsed();

    // 2. CPU TADOC.
    let dag = Dag::from_grammar(&archive.grammar);
    let t = Instant::now();
    let cpu = run_task(&archive, &dag, Task::Sort, TaskConfig::default());
    let cpu_time = t.elapsed();

    // 3. G-TADOC on the simulated GPU.
    let mut engine = GtadocEngine::new(GpuSpec::tesla_v100());
    let t = Instant::now();
    let gpu = engine.run_archive(&archive, Task::Sort);
    let gpu_wall = t.elapsed();

    let cpu_ranked = match &*cpu.output {
        AnalyticsOutput::Sort(s) => s.clone(),
        _ => unreachable!(),
    };
    assert_eq!(cpu_ranked, oracle, "TADOC must agree with the oracle");
    assert_eq!(gpu.output, *cpu.output, "G-TADOC must agree with TADOC");

    println!("top 10 words (all three implementations agree):");
    for (word, count) in oracle.iter().take(10) {
        println!("  {:<12} {count}", corpus.dictionary.word(*word));
    }

    println!("\nwall-clock on this machine:");
    println!("  uncompressed oracle : {oracle_time:.2?}");
    println!("  CPU TADOC           : {cpu_time:.2?}");
    println!("  G-TADOC (simulated) : {gpu_wall:.2?} (host wall-clock of the simulation)");
    println!(
        "\nmodelled GPU time on a Tesla V100: {:.3} ms (init {:.3} ms + traversal {:.3} ms), {} kernel launches",
        gpu.total_seconds() * 1e3,
        gpu.init_seconds * 1e3,
        gpu.traversal_seconds * 1e3,
        gpu.kernel_launches
    );
}
