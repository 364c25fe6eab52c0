//! Quickstart: compress a tiny corpus and run every analytics task on the
//! simulated GPU, cross-checking against the CPU TADOC baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use g_tadoc_repro::prelude::*;

fn main() {
    // The corpus of Figure 1 in the paper: two files sharing repeated content.
    let corpus = vec![
        (
            "fileA.txt".to_string(),
            "w1 w2 w3 w1 w2 w4 w1 w2 w3 w1 w2 w4".to_string(),
        ),
        ("fileB.txt".to_string(), "w1 w2 w1".to_string()),
    ];

    // Compress with TADOC (dictionary conversion + Sequitur grammar).
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let stats = ArchiveStats::compute(&archive);
    println!("== compressed archive ==");
    println!("{stats}\n");

    // Show the grammar, as in Figure 1 (d).
    println!("== grammar ==");
    for r in 0..archive.grammar.num_rules() {
        let body: Vec<String> = archive
            .grammar
            .rule(r)
            .iter()
            .map(|s| s.to_string())
            .collect();
        println!("R{r}: {}", body.join(" "));
    }
    println!();

    // Run all six tasks on a simulated Tesla V100 and cross-check against the
    // CPU baseline.
    let dag = Dag::from_grammar(&archive.grammar);
    let mut engine = GtadocEngine::new(GpuSpec::tesla_v100());
    println!("== analytics directly on the compressed data ==");
    for task in Task::ALL {
        let gpu = engine.run_archive(&archive, task);
        let cpu = run_task(&archive, &dag, task, TaskConfig::default());
        assert_eq!(gpu.output, *cpu.output, "GPU and CPU must agree");
        println!(
            "{:<22} strategy={:<10} modelled GPU time = {:>9.3} µs (init {:.3} µs + traversal {:.3} µs)",
            task.name(),
            gpu.strategy.to_string(),
            gpu.total_seconds() * 1e6,
            gpu.init_seconds * 1e6,
            gpu.traversal_seconds * 1e6,
        );
    }

    // Print the word count result, which matches Figure 2 of the paper.
    let wc = engine.run_archive(&archive, Task::WordCount);
    if let AnalyticsOutput::WordCount(result) = &wc.output {
        println!("\n== word count (Figure 2) ==");
        let mut rows: Vec<(String, u64)> = result
            .iter()
            .map(|(w, c)| (archive.dictionary.word(w[0]).to_string(), c))
            .collect();
        rows.sort();
        for (word, count) in rows {
            println!("<{word}, {count}>");
        }
    }
}
