//! Stress tests for the persistent worker-pool executor.
//!
//! The pool dispatches every phase and DAG level as a barrier epoch over the
//! same parked threads, so the interesting adversarial shape is a grammar
//! with *many tiny levels* — the case that used to pay a thread-spawn per
//! level and that exercises the epoch handshake thousands of times per run.
//! Plus a file-skewed regression corpus for the CSR-based term-vector
//! kernel, whose workers own statically partitioned file ranges, and a
//! word-skewed corpus plus the balance of the word ranges for the window
//! fill, whose workers each sort a contiguous range of leading words.

mod common;

use common::run_cold;
use g_tadoc_repro::prelude::*;

/// The tasks whose window fill sorts word ranges (at `l` ≥ 2; the word
/// tasks read the `l` = 1 table, which has no sort within a word).
const SHARDED: [Task; 2] = [Task::SequenceCount, Task::RankedInvertedIndex];

/// A corpus whose grammar is a deep chain: repeated doubling yields nested
/// rules (each level referencing the previous), i.e. many near-empty DAG
/// levels rather than a few wide ones.
fn deep_chain_corpus() -> Vec<(String, String)> {
    let mut s = "w0 w1".to_string();
    for _ in 0..9 {
        s = format!("{s} {s}");
    }
    vec![
        ("deep".to_string(), s.clone()),
        ("half".to_string(), s[..s.len() / 2].to_string()),
        ("tiny".to_string(), "w0 w1 w2".to_string()),
    ]
}

/// Many files with a heavily skewed size distribution: one dominant file
/// built from shared redundant content, a mid-sized tail, and a swarm of
/// tiny and empty files.  Exercises the cost-based file partitioning of the
/// term-vector kernel (the dominant file must not serialize a whole worker's
/// range behind it by being mis-sized).
fn file_skewed_corpus() -> Vec<(String, String)> {
    let shared = "alpha beta gamma delta epsilon zeta eta theta ".repeat(40);
    let mut corpus = vec![("whale".to_string(), format!("{shared} {shared} {shared}"))];
    for i in 0..8 {
        corpus.push((format!("mid{i}"), shared.clone()));
    }
    for i in 0..40 {
        corpus.push((format!("minnow{i}"), format!("alpha beta minnow{i}")));
    }
    corpus.push(("empty".to_string(), String::new()));
    corpus
}

#[test]
fn deep_grammar_has_many_tiny_levels() {
    let archive = compress_corpus(&deep_chain_corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    assert!(
        dag.num_layers >= 8,
        "stress premise violated: doubling corpus only produced {} DAG layers",
        dag.num_layers
    );
}

#[test]
fn all_tasks_agree_across_thread_counts_on_many_tiny_levels() {
    let corpus = deep_chain_corpus();
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let files = archive.grammar.expand_files();
    let cfg = TaskConfig::default();
    for task in Task::ALL {
        let oracle = tadoc::oracle::run(&files, task, cfg);
        let sequential = run_task(&archive, &dag, task, cfg);
        assert_eq!(
            *sequential.output,
            oracle,
            "sequential vs oracle on {}",
            task.name()
        );
        for threads in [1usize, 4, 8] {
            let fine = run_cold(Engine::builder(&archive, &dag).threads(threads), task, cfg);
            assert_eq!(
                fine.output,
                sequential.output,
                "task {} with {threads} threads diverges on the deep-chain grammar",
                task.name()
            );
        }
    }
}

#[test]
fn repeated_runs_reuse_fresh_pools_without_interference() {
    // Every run builds (and drops) its own session and pool; loop a task
    // enough times that leaked or wedged helper threads would show up as a
    // hang or a wrong result.
    let archive = compress_corpus(&deep_chain_corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    let expected = run_task(&archive, &dag, Task::SequenceCount, cfg).output;
    for _ in 0..20 {
        let fine = run_cold(
            Engine::builder(&archive, &dag).threads(4),
            Task::SequenceCount,
            cfg,
        );
        assert_eq!(fine.output, expected);
    }
}

#[test]
fn term_vector_fine_matches_sequential_on_file_skew() {
    let corpus = file_skewed_corpus();
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    let oracle = tadoc::oracle::run(&archive.grammar.expand_files(), Task::TermVector, cfg);
    let sequential = run_task(&archive, &dag, Task::TermVector, cfg);
    assert_eq!(*sequential.output, oracle, "sequential vs oracle");
    for threads in [1usize, 2, 4, 8] {
        let fine = run_cold(
            Engine::builder(&archive, &dag).threads(threads),
            Task::TermVector,
            cfg,
        );
        assert_eq!(
            fine.output, sequential.output,
            "termVector with {threads} threads diverges on the file-skewed corpus"
        );
    }
}

/// Half of all tokens are one word, so one leading word starts half of all
/// windows: its word range outweighs every worker's fair share.
fn word_skewed_corpus() -> Vec<(String, String)> {
    (0..12)
        .map(|f| {
            let text: Vec<String> = (0..600)
                .map(|i| format!("the w{}", (i * 7 + f * 13) % (40 + f)))
                .collect();
            (format!("doc{f}"), text.join(" "))
        })
        .collect()
}

#[test]
fn sharded_kernels_match_sequential_when_one_word_is_half_the_corpus() {
    let tasks = [Task::WordCount, Task::InvertedIndex]
        .into_iter()
        .chain(SHARDED);
    let corpus = word_skewed_corpus();
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let files = archive.grammar.expand_files();
    let the = files[0][0];
    let share = files.iter().flatten().filter(|&&w| w == the).count();
    assert_eq!(
        2 * share,
        files.iter().map(Vec::len).sum::<usize>(),
        "premise"
    );
    // `l` = 2 and 3 take the packed keys, `l` = 4 the `Sequence` path.
    for l in [2usize, 3, 4] {
        let cfg = TaskConfig { sequence_length: l };
        for task in tasks.clone() {
            let sequential = run_task(&archive, &dag, task, cfg);
            for threads in [1usize, 3, 8] {
                let fine = run_cold(Engine::builder(&archive, &dag).threads(threads), task, cfg);
                assert_eq!(
                    fine.output,
                    sequential.output,
                    "{} at l = {l} with {threads} threads diverges on the word-skewed corpus",
                    task.name()
                );
            }
        }
    }
}

/// The largest word range a worker sorts stays within 1.5× the mean range
/// on the many-file (A) and few-huge-file (B) shapes.  Each task runs cold
/// on an engine of its own: the sequence tasks sort only in the window
/// fill of their first query.
#[test]
fn merge_groups_stay_balanced_on_dataset_shapes() {
    for id in [DatasetId::A, DatasetId::B] {
        let archive = DatasetPreset::new(id).generate_scaled(0.2).compress();
        let dag = Dag::from_grammar(&archive.grammar);
        for threads in [2usize, 4, 8] {
            for task in SHARDED {
                let builder = Engine::builder(&archive, &dag).threads(threads);
                let t = run_cold(builder, task, TaskConfig::default()).timings;
                let largest = t.largest_merge_group as f64;
                let mean = t.merge_entries as f64 / threads as f64;
                assert!(mean > 100.0, "premise: {} entries", t.merge_entries);
                assert!(
                    largest <= 1.5 * mean,
                    "dataset {} {} at {threads} threads: largest range {largest} vs mean {mean:.0}",
                    id.label(),
                    task.name()
                );
            }
        }
    }
}
