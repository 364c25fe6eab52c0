//! Engine session integration tests: one long-lived [`Engine`] must serve
//! repeated queries byte-identically to the sequential oracle, keep its
//! worker pool alive across queries, and demonstrably amortize the shared
//! initialization (cold vs warm, observable through `PhaseTimings`).

use g_tadoc_repro::prelude::*;
use tadoc::apps::TaskExecution;
use tadoc::timing::WorkStats;

/// Dataset-A-shaped corpus: many small files sharing redundant content.
fn a_shaped_corpus() -> Vec<(String, String)> {
    let shared = "the quick brown fox jumps over the lazy dog while the cat watches ".repeat(5);
    (0..40)
        .map(|i| {
            (
                format!("abstract{i}"),
                format!("{shared} topic{} {shared}", i % 7),
            )
        })
        .collect()
}

/// Dataset-B-shaped corpus: a few huge files whose root body dominates.
fn b_shaped_corpus() -> Vec<(String, String)> {
    let page = "alpha beta gamma delta epsilon zeta eta theta iota kappa ".repeat(40);
    (0..3)
        .map(|i| {
            (
                format!("book{i}"),
                format!("{page} chapter{} {page} chapter{} {page}", i, i + 1),
            )
        })
        .collect()
}

/// One `Engine`, all six tasks run **twice**, at 1/4/8 threads, on A- and
/// B-shaped corpora: both passes must be byte-identical to the sequential
/// oracle, and the second pass must be served warm.
#[test]
fn one_engine_all_tasks_twice_matches_oracle_on_both_corpus_shapes() {
    for (shape, corpus) in [("A", a_shaped_corpus()), ("B", b_shaped_corpus())] {
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let cfg = TaskConfig::default();
        for threads in [1usize, 4, 8] {
            let engine = Engine::builder(&archive, &dag)
                .threads(threads)
                .build()
                .expect("valid engine config");
            for task in Task::ALL {
                let oracle = run_task(&archive, &dag, task, cfg);
                let first = engine.run(task, cfg).expect("valid task config");
                let second = engine.run(task, cfg).expect("valid task config");
                assert_eq!(
                    first.output,
                    oracle.output,
                    "[{shape}] cold {} at {threads} threads diverges",
                    task.name()
                );
                assert_eq!(
                    second.output,
                    oracle.output,
                    "[{shape}] warm {} at {threads} threads diverges",
                    task.name()
                );
                assert!(
                    second.timings.warm,
                    "[{shape}] second {} run at {threads} threads must be warm",
                    task.name()
                );
            }
        }
    }
}

/// The engine has one mode; it must answer every task exactly like the
/// sequential reference `run_task`, on the path it was built for.
#[test]
fn engine_modes_agree_with_sequential_reference() {
    let corpus = a_shaped_corpus();
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    let engine = Engine::builder(&archive, &dag)
        .threads(3)
        .build()
        .expect("valid engine config");
    for task in Task::ALL {
        let reference = run_task(&archive, &dag, task, cfg);
        let via_engine = engine.run(task, cfg).expect("valid task config");
        assert_eq!(
            via_engine.output,
            reference.output,
            "task {} diverges from the sequential reference",
            task.name()
        );
        assert!(via_engine.timings.degraded.is_none(), "{}", task.name());
    }
}

/// On a warm engine, a repeated task's recorded init phase must drop versus
/// its cold run: no shared artifact is recomputed (zero shared-init time),
/// and the init wall-clock shrinks.  The engine counts no abstract work on
/// either run — `init_work` / `traversal_work` belong to the sequential
/// reference (`apps::tests::timings_record_work`).
#[test]
fn warm_init_drops_versus_cold_init() {
    let corpus = b_shaped_corpus();
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    for task in Task::ALL {
        // A fresh session per task: on a shared one, a task can be served
        // warm on its *first* run because an earlier task already cached
        // its whole artifact set (sort after wordCount, for instance).
        let engine = Engine::builder(&archive, &dag)
            .threads(4)
            .build()
            .expect("valid engine config");
        let cold: TaskExecution = engine.run(task, cfg).expect("valid task config");
        assert!(!cold.timings.warm, "{} first run must be cold", task.name());
        assert_eq!(
            cold.timings.init_work,
            WorkStats::default(),
            "{}",
            task.name()
        );
        assert_eq!(
            cold.timings.traversal_work,
            WorkStats::default(),
            "{}",
            task.name()
        );
        // Take the fastest of a few warm repeats so a scheduler preemption
        // inside one sub-microsecond warm init cannot flake the wall-clock
        // comparison on a time-sliced single-core runner.
        let mut min_warm_init = None;
        for _ in 0..3 {
            let warm: TaskExecution = engine.run(task, cfg).expect("valid task config");
            assert!(warm.timings.warm, "{} repeat run must be warm", task.name());
            assert!(
                warm.timings.shared_init.is_zero(),
                "{} warm run must spend no time on shared artifacts",
                task.name()
            );
            assert_eq!(
                warm.timings.init_work,
                WorkStats::default(),
                "{}",
                task.name()
            );
            assert_eq!(
                warm.timings.traversal_work,
                WorkStats::default(),
                "{}",
                task.name()
            );
            min_warm_init = Some(
                min_warm_init.map_or(warm.timings.init, |m: std::time::Duration| {
                    m.min(warm.timings.init)
                }),
            );
        }
        // Wall-clock: the warm init only performs cache lookups, the cold
        // init ran whole pool traversals; on the B-shaped corpus the gap is
        // orders of magnitude, so this comparison is stable.
        let min_warm_init = min_warm_init.expect("three warm runs measured");
        assert!(
            min_warm_init <= cold.timings.init,
            "{} warm init {:?} must not exceed cold init {:?}",
            task.name(),
            min_warm_init,
            cold.timings.init
        );
    }
}

/// Pool-survives-queries stress: many small queries on one engine, epochs
/// strictly increasing, and no thread is ever respawned (worker ids stay
/// pinned to the same OS threads from the first query to the last).
#[test]
fn pool_survives_many_queries_without_respawning_threads() {
    let corpus = a_shaped_corpus();
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid engine config");

    let initial_thread_ids: Vec<(usize, std::thread::ThreadId)> =
        engine.with_worker_pool(|pool| pool.collect(|w| (w, std::thread::current().id())));

    let mut last_epochs = engine.epochs();
    let cfg = TaskConfig::default();
    for round in 0..25 {
        let task = Task::ALL[round % Task::ALL.len()];
        let exec = engine.run(task, cfg).expect("valid task config");
        assert_eq!(
            exec.output.task().name(),
            task.name(),
            "round {round} produced the wrong task output"
        );
        let epochs = engine.epochs();
        assert!(
            epochs > last_epochs,
            "round {round}: epochs must strictly increase ({epochs} vs {last_epochs})"
        );
        last_epochs = epochs;
    }

    let final_thread_ids: Vec<(usize, std::thread::ThreadId)> =
        engine.with_worker_pool(|pool| pool.collect(|w| (w, std::thread::current().id())));
    assert_eq!(
        final_thread_ids, initial_thread_ids,
        "worker ids must stay pinned to the same OS threads across queries"
    );
}

/// Running all six tasks computes shared prerequisites once: after one pass,
/// a second pass is fully warm, and outputs match the oracle.
#[test]
fn run_all_shares_prerequisites_and_matches_oracle() {
    let corpus = b_shaped_corpus();
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid engine config");
    let cfg = TaskConfig::default();
    let pass = || -> Vec<TaskExecution> {
        Task::ALL
            .into_iter()
            .map(|task| engine.run(task, cfg).expect("valid task config"))
            .collect()
    };

    let first = pass();
    let second = pass();
    for (task, (cold, warm)) in Task::ALL.into_iter().zip(first.iter().zip(&second)) {
        let oracle = run_task(&archive, &dag, task, cfg);
        assert_eq!(cold.output, oracle.output, "{} pass 1", task.name());
        assert_eq!(warm.output, oracle.output, "{} pass 2", task.name());
        assert!(
            warm.timings.warm,
            "{} must be warm on the second pass",
            task.name()
        );
    }

    // Within the first pass, later tasks already share artifacts computed
    // by earlier ones: sort reuses wordCount's rule weights and chunks
    // outright, so it must have run fully warm even on pass 1.
    assert!(
        first[1].timings.warm,
        "sort shares every artifact with wordCount and must be warm in pass 1"
    );
}

/// Sequence-length variants each get their own cached window table and
/// all match the oracle through one shared session.
#[test]
fn sequence_length_variants_share_one_session() {
    let corpus = a_shaped_corpus();
    let archive = compress_corpus(&corpus, CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid engine config");
    for l in [1usize, 2, 3, 4] {
        let cfg = TaskConfig { sequence_length: l };
        for task in [Task::SequenceCount, Task::RankedInvertedIndex] {
            let oracle = run_task(&archive, &dag, task, cfg);
            let got = engine.run(task, cfg).expect("valid task config");
            assert_eq!(got.output, oracle.output, "{} l={l}", task.name());
            let again = engine.run(task, cfg).expect("valid task config");
            assert!(
                again.timings.warm,
                "{} l={l} repeat must be warm",
                task.name()
            );
            assert_eq!(again.output, oracle.output, "{} l={l} warm", task.name());
        }
    }
}
