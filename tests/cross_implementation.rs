//! Cross-implementation integration tests: for every analytics task, the
//! uncompressed oracle, sequential CPU TADOC, fine-grained parallel TADOC,
//! and G-TADOC (both traversal strategies where applicable, on all three GPU
//! presets) must produce identical results.  The fine back end is reached
//! through `Engine`.

mod common;

use common::run_cold;
use datagen::CorpusConfig;
use g_tadoc_repro::prelude::*;
use gtadoc::traversal::TraversalStrategy;

fn corpora() -> Vec<(&'static str, Vec<(String, String)>)> {
    let shared = "the quick brown fox jumps over the lazy dog and the cat watches ".repeat(8);
    vec![
        (
            "figure1",
            vec![
                (
                    "fileA".to_string(),
                    "w1 w2 w3 w1 w2 w4 w1 w2 w3 w1 w2 w4".to_string(),
                ),
                ("fileB".to_string(), "w1 w2 w1".to_string()),
            ],
        ),
        (
            "redundant_multi_file",
            (0..6)
                .map(|i| {
                    (
                        format!("doc{i}"),
                        format!("{shared} unique token{i} {shared}"),
                    )
                })
                .collect(),
        ),
        (
            "single_file",
            vec![("only".to_string(), format!("{shared} {shared} coda"))],
        ),
        (
            "no_redundancy",
            vec![
                ("a".to_string(), "one two three four five six".to_string()),
                ("b".to_string(), "seven eight nine ten eleven".to_string()),
            ],
        ),
        (
            "empty_and_tiny_files",
            vec![
                ("empty".to_string(), String::new()),
                ("tiny".to_string(), "x".to_string()),
                ("normal".to_string(), "x y z x y z x y".to_string()),
            ],
        ),
    ]
}

#[test]
fn all_implementations_agree_on_all_tasks() {
    for (name, corpus) in corpora() {
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let files = archive.grammar.expand_files();
        let cfg = TaskConfig::default();
        let mut engine = GtadocEngine::new(GpuSpec::gtx_1080());

        for task in Task::ALL {
            let oracle_out = tadoc::oracle::run(&files, task, cfg);
            let cpu = run_task(&archive, &dag, task, cfg);
            assert_eq!(
                *cpu.output,
                oracle_out,
                "[{name}] CPU TADOC vs oracle on {}",
                task.name()
            );

            let fine = run_cold(Engine::builder(&archive, &dag).threads(3), task, cfg);
            assert_eq!(
                *fine.output,
                oracle_out,
                "[{name}] fine-grained TADOC vs oracle on {}",
                task.name()
            );

            let gpu = engine.run_archive(&archive, task);
            assert_eq!(
                gpu.output,
                oracle_out,
                "[{name}] G-TADOC vs oracle on {}",
                task.name()
            );
        }
    }
}

/// The fine-grained CPU engine must be byte-identical to the sequential
/// path on every task, on the paper's Figure-1 corpus and on a Zipfian
/// synthetic corpus, at several worker-pool sizes.  (The name is pinned by
/// the tier-1 floor list; the sequential reference and the engine are the
/// two CPU paths.)
#[test]
fn fine_grained_equals_sequential_and_coarse_on_all_tasks() {
    let figure1 = corpora().swap_remove(0).1;
    let zipf = CorpusConfig {
        name: "zipf".to_string(),
        num_files: 6,
        tokens_per_file: 600,
        vocabulary: 400,
        zipf_exponent: 1.1,
        redundancy: 0.7,
        ..Default::default()
    };
    let zipf_corpus = datagen::corpus::generate(&zipf);

    let archives: Vec<(&str, TadocArchive)> = vec![
        (
            "figure1",
            compress_corpus(&figure1, CompressOptions::default()),
        ),
        ("zipf", zipf_corpus.compress()),
    ];

    for (name, archive) in &archives {
        let dag = Dag::from_grammar(&archive.grammar);
        let cfg = TaskConfig::default();
        for task in Task::ALL {
            let sequential = run_task(archive, &dag, task, cfg);
            for threads in [1usize, 4, 8] {
                let fine = run_cold(Engine::builder(archive, &dag).threads(threads), task, cfg);
                assert_eq!(
                    fine.output,
                    sequential.output,
                    "[{name}] fine ({threads} threads) vs sequential on {}",
                    task.name()
                );
            }
        }
    }
}

/// An archive containing an empty file (alongside tiny and normal files)
/// must agree across sequential and fine on **all six tasks** and at 1/4/8
/// worker threads.  The empty file makes work partitioning degenerate —
/// workers can end up with zero assigned rules and empty word ranges.
#[test]
fn empty_file_archive_agrees_on_all_tasks_at_all_thread_counts() {
    let corpus = vec![
        ("empty".to_string(), String::new()),
        ("tiny".to_string(), "x".to_string()),
        ("normal".to_string(), "x y z x y z x y".to_string()),
        ("empty_too".to_string(), String::new()),
    ];
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let files = archive.grammar.expand_files();
    let cfg = TaskConfig::default();
    for task in Task::ALL {
        let oracle_out = tadoc::oracle::run(&files, task, cfg);
        let sequential = run_task(&archive, &dag, task, cfg);
        assert_eq!(
            *sequential.output,
            oracle_out,
            "sequential vs oracle on {} with an empty file",
            task.name()
        );
        for threads in [1usize, 4, 8] {
            let fine = run_cold(Engine::builder(&archive, &dag).threads(threads), task, cfg);
            assert_eq!(
                fine.output,
                sequential.output,
                "fine ({threads} threads) vs sequential on {} with an empty file",
                task.name()
            );
        }
    }
}

/// Dataset-B-shaped regression corpus: a few huge files whose root body
/// dominates the grammar.  This is the shape where whole-rule work items
/// serialise on one worker — the chunk-granular decomposition must both
/// agree with the sequential engine and actually be exercised (the root is
/// far larger than the chunking threshold).  All six tasks, 1/4/8 threads,
/// at the default threshold and at a small one that multiplies chunk
/// boundaries.
#[test]
fn dataset_b_shaped_corpus_agrees_on_all_tasks_at_all_thread_counts() {
    let corpus = DatasetPreset::new(DatasetId::B).generate_scaled(1.0);
    assert!(
        (2..=4).contains(&corpus.files.len()),
        "dataset B preset must stay a few-huge-files corpus"
    );
    for (name, tokens) in corpus.file_names.iter().zip(&corpus.files) {
        assert!(
            tokens.len() >= 50_000,
            "file {name} must hold at least 50k tokens"
        );
    }
    let archive = corpus.compress();
    let dag = Dag::from_grammar(&archive.grammar);
    let default_chunk = tadoc::fine_grained::DEFAULT_CHUNK_ELEMENTS;
    assert!(
        archive.grammar.root().len() > default_chunk,
        "the root body must exceed the chunking threshold, or this test \
         no longer exercises chunk-granular decomposition"
    );
    let cfg = TaskConfig::default();
    for task in Task::ALL {
        let sequential = run_task(&archive, &dag, task, cfg);
        for threads in [1usize, 4, 8] {
            for chunk_elements in [default_chunk, 512] {
                let fine = run_cold(
                    Engine::builder(&archive, &dag)
                        .threads(threads)
                        .chunk_elements(chunk_elements),
                    task,
                    cfg,
                );
                assert_eq!(
                    fine.output,
                    sequential.output,
                    "fine ({threads} threads, chunk {chunk_elements}) vs sequential on {}",
                    task.name()
                );
            }
        }
    }
}

#[test]
fn both_gpu_traversal_strategies_agree_on_every_platform() {
    let corpus = corpora().remove(1).1;
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let layout = gtadoc::layout::GpuLayout::build(&archive, &dag);
    for spec in GpuSpec::all_platforms() {
        let mut engine = GtadocEngine::new(spec);
        for task in [
            Task::WordCount,
            Task::Sort,
            Task::InvertedIndex,
            Task::TermVector,
        ] {
            let td = engine.run_layout(&layout, task, Some(TraversalStrategy::TopDown));
            let bu = engine.run_layout(&layout, task, Some(TraversalStrategy::BottomUp));
            assert_eq!(
                td.output,
                bu.output,
                "strategies disagree on {}",
                task.name()
            );
        }
    }
}

#[test]
fn archive_serialization_preserves_analytics_results() {
    let corpus = corpora().remove(1).1;
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let bytes = archive.to_bytes();
    let restored = TadocArchive::from_bytes(&bytes).expect("valid archive");
    let dag_a = Dag::from_grammar(&archive.grammar);
    let dag_b = Dag::from_grammar(&restored.grammar);
    let cfg = TaskConfig::default();
    for task in Task::ALL {
        let a = run_task(&archive, &dag_a, task, cfg);
        let b = run_task(&restored, &dag_b, task, cfg);
        assert_eq!(a.output, b.output, "{}", task.name());
    }
}

#[test]
fn non_default_sequence_lengths_agree() {
    let corpus = corpora().remove(2).1;
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let files = archive.grammar.expand_files();
    for l in [1usize, 2, 3] {
        let cfg = TaskConfig { sequence_length: l };
        let params = GtadocParams {
            sequence_length: l,
            ..Default::default()
        };
        let mut engine = GtadocEngine::with_params(GpuSpec::tesla_v100(), params);
        for task in [Task::SequenceCount, Task::RankedInvertedIndex] {
            let oracle_out = tadoc::oracle::run(&files, task, cfg);
            let cpu = run_task(&archive, &dag, task, cfg);
            let gpu = engine.run_archive(&archive, task);
            assert_eq!(*cpu.output, oracle_out, "l={l} {}", task.name());
            assert_eq!(gpu.output, oracle_out, "l={l} {}", task.name());
        }
    }
}
