//! Concurrent serving integration tests: N client threads hammer **one
//! shared** [`Engine`] (`&self` queries) with all six tasks at once.  Every
//! answer must be byte-identical to the sequential oracle, the once-filled
//! analysis layer must fill **exactly once** no matter how many clients
//! race on first touch (observable through `Engine::analysis_fills`), and a
//! cold-start thundering herd — every client arriving before the first fill
//! — must neither wedge nor duplicate work.

use g_tadoc_repro::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

fn serving_corpus() -> Vec<(String, String)> {
    let shared = "the quick brown fox jumps over the lazy dog while the cat watches ".repeat(5);
    (0..24)
        .map(|i| {
            (
                format!("doc{i}"),
                format!("{shared} topic{} {shared}", i % 5),
            )
        })
        .collect()
}

/// The serving mix: all six tasks under the default config, plus the
/// sequence-sensitive tasks at two extra lengths — the only per-query knob
/// that shapes a shared artifact, so the mix exercises the per-`l`
/// window-table slots under contention too.
fn task_mix() -> Vec<(Task, TaskConfig)> {
    let mut mix: Vec<(Task, TaskConfig)> = Task::ALL
        .into_iter()
        .map(|t| (t, TaskConfig::default()))
        .collect();
    for l in [2usize, 4] {
        mix.push((Task::SequenceCount, TaskConfig { sequence_length: l }));
        mix.push((Task::RankedInvertedIndex, TaskConfig { sequence_length: l }));
    }
    mix
}

fn oracle_outputs(
    archive: &TadocArchive,
    dag: &Dag,
    mix: &[(Task, TaskConfig)],
) -> HashMap<(Task, TaskConfig), Arc<AnalyticsOutput>> {
    mix.iter()
        .map(|&(task, cfg)| ((task, cfg), run_task(archive, dag, task, cfg).output))
        .collect()
}

/// 2/4/8 client threads on one shared engine, each running many iterations
/// of the full mix (offset by client id so different tasks overlap in
/// flight): every answer byte-identical to the sequential oracle.
#[test]
fn concurrent_clients_get_oracle_identical_answers() {
    let corpus = serving_corpus();
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let mix = task_mix();
    let oracle = oracle_outputs(&archive, &dag, &mix);

    for clients in [2usize, 4, 8] {
        let engine = Engine::builder(&archive, &dag)
            .threads(4)
            .build()
            .expect("valid engine config");
        std::thread::scope(|s| {
            for c in 0..clients {
                let engine = &engine;
                let mix = &mix;
                let oracle = &oracle;
                s.spawn(move || {
                    for i in 0..3 * mix.len() {
                        let (task, cfg) = mix[(c + i) % mix.len()];
                        let exec = engine.run(task, cfg).expect("valid task config");
                        assert_eq!(
                            Some(&exec.output),
                            oracle.get(&(task, cfg)),
                            "client {c} iteration {i}: {} diverged from the oracle \
                             under {clients}-way concurrency",
                            task.name()
                        );
                    }
                });
            }
        });
    }
}

/// The analysis layer fills exactly once under concurrency: after a full
/// concurrent mix, the fill counter matches a fresh engine driven through
/// the identical mix sequentially — no artifact was computed twice, none
/// was skipped.
#[test]
fn analysis_layer_fills_exactly_once_under_concurrency() {
    let corpus = serving_corpus();
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let mix = task_mix();

    let sequential = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid engine config");
    for &(task, cfg) in &mix {
        sequential.run(task, cfg).expect("valid task config");
    }
    let expected_fills = sequential.analysis_fills();
    assert!(expected_fills > 0, "the mix must fill shared artifacts");

    let concurrent = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid engine config");
    std::thread::scope(|s| {
        for c in 0..8usize {
            let engine = &concurrent;
            let mix = &mix;
            s.spawn(move || {
                for i in 0..2 * mix.len() {
                    let (task, cfg) = mix[(c + i) % mix.len()];
                    engine.run(task, cfg).expect("valid task config");
                }
            });
        }
    });
    assert_eq!(
        concurrent.analysis_fills(),
        expected_fills,
        "concurrent first-touch races must fill each artifact exactly once"
    );
}

/// Cold-start thundering herd: all clients arrive at a barrier *before*
/// anything is filled, then submit the same artifact-heavy task at the same
/// instant.  Exactly one fill set executes, everyone gets the oracle
/// answer.
#[test]
fn cold_start_thundering_herd_fills_once() {
    let corpus = serving_corpus();
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    let oracle = run_task(&archive, &dag, Task::SequenceCount, cfg);

    let fresh = Engine::builder(&archive, &dag)
        .threads(2)
        .build()
        .expect("valid engine config");
    fresh.run(Task::SequenceCount, cfg).expect("valid config");
    let expected_fills = fresh.analysis_fills();

    let clients = 8usize;
    let engine = Engine::builder(&archive, &dag)
        .threads(2)
        .build()
        .expect("valid engine config");
    assert_eq!(engine.analysis_fills(), 0, "nothing filled before the herd");
    let barrier = Barrier::new(clients);
    std::thread::scope(|s| {
        for c in 0..clients {
            let engine = &engine;
            let barrier = &barrier;
            let oracle = &oracle;
            s.spawn(move || {
                barrier.wait();
                let exec = engine
                    .run(Task::SequenceCount, cfg)
                    .expect("valid task config");
                assert_eq!(exec.output, oracle.output, "herd client {c}");
            });
        }
    });
    assert_eq!(
        engine.analysis_fills(),
        expected_fills,
        "the herd must fill each artifact exactly once, not once per client"
    );
}

/// The same concurrent mix with the results cache enabled: answers stay
/// oracle-identical and the hit/miss counters reconcile with the request
/// count (`hits + misses == total queries`).
#[test]
fn concurrent_serving_with_results_cache_stays_oracle_identical() {
    let corpus = serving_corpus();
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let mix = task_mix();
    let oracle = oracle_outputs(&archive, &dag, &mix);

    let clients = 8usize;
    let rounds = 3usize;
    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .results_cache(true)
        .build()
        .expect("valid engine config");
    std::thread::scope(|s| {
        for c in 0..clients {
            let engine = &engine;
            let mix = &mix;
            let oracle = &oracle;
            s.spawn(move || {
                for i in 0..rounds * mix.len() {
                    let (task, cfg) = mix[(c + i) % mix.len()];
                    let exec = engine.run(task, cfg).expect("valid task config");
                    assert_eq!(
                        Some(&exec.output),
                        oracle.get(&(task, cfg)),
                        "client {c}: cached serving diverged on {}",
                        task.name()
                    );
                }
            });
        }
    });
    let (hits, misses) = engine
        .results_cache_counters()
        .expect("cache enabled at build time");
    assert_eq!(
        hits + misses,
        (clients * rounds * mix.len()) as u64,
        "every query probes the cache exactly once"
    );
    assert!(
        misses >= mix.len() as u64,
        "each distinct key misses at least once"
    );
    assert!(hits > 0, "a repeated mix must produce cache hits");
}
