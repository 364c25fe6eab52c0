//! Fault-injection suite: compiled and run only with the `failpoints`
//! feature (`cargo test --features failpoints`), which arms the injection
//! sites across the execution stack (`worker-epoch`, `chunk-boundary`,
//! `merge-fold` — see `ARCHITECTURE.md`, *Failure model & recovery*).
//!
//! The contract under test: an injected fault at **any** site, under any
//! thread count, for every task, leaves the *same* `Engine` serving
//! byte-identical results to the sequential oracle — first via the degraded
//! (sequential-retry) answer of the faulted query itself, then via the
//! healed fine path on the query after.  The matrix also proves every listed
//! site *fires*: a site no task's path crosses would pass the contract
//! vacuously, so each must degrade at least one task at each thread count.

#![cfg(feature = "failpoints")]

use g_tadoc_repro::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;
use tadoc::apps::run_task;
use tadoc::timing::Degradation;

/// The failpoint registry is process-global and tests arm/disarm it, so
/// they must not interleave.  (A test that panics poisons the mutex; later
/// tests just take the guard anyway — the registry itself is still valid.)
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Every site planted in the execution stack, in stack order.
const FAILPOINTS: [&str; 3] = ["worker-epoch", "chunk-boundary", "merge-fold"];

fn corpus() -> Vec<(String, String)> {
    let shared = "the quick brown fox jumps over the lazy dog while the cat watches ".repeat(8);
    (0..12)
        .map(|i| {
            (
                format!("doc{i}"),
                format!("{shared} topic{} {shared}", i % 5),
            )
        })
        .collect()
}

/// A corpus big enough that a cold fine-grained query comfortably outlives
/// a microsecond-scale deadline (used by the limit tests).
fn large_corpus() -> Vec<(String, String)> {
    let page = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu ".repeat(60);
    (0..8)
        .map(|i| (format!("book{i}"), format!("{page} chapter{} {page}", i)))
        .collect()
}

#[test]
fn every_failpoint_leaves_the_engine_serving_oracle_identical_results() {
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    let oracles: Vec<std::sync::Arc<AnalyticsOutput>> = Task::ALL
        .into_iter()
        .map(|task| run_task(&archive, &dag, task, cfg).output)
        .collect();
    for threads in [1usize, 4, 8] {
        for site in FAILPOINTS {
            let mut fired = 0;
            for (task, oracle) in Task::ALL.into_iter().zip(&oracles) {
                let label = format!("site={site} threads={threads} task={}", task.name());
                let engine = Engine::builder(&archive, &dag)
                    .threads(threads)
                    .build()
                    .expect("valid archive");
                failpoints::enable_times(site, 1);
                // The faulted query must still *succeed* — degraded to the
                // sequential path, never surfaced as a panic or error.
                let faulted = engine
                    .run(task, cfg)
                    .unwrap_or_else(|e| panic!("{label}: query failed: {e}"));
                assert_eq!(&faulted.output, oracle, "{label}: degraded output");
                match faulted.timings.degraded {
                    Some(Degradation::WorkerPanic) => fired += 1,
                    // `merge-fold` fires only where a window fill sorts and
                    // folds its word ranges: in the window fill of `l` ≥ 2
                    // (as here, `l` = 3), which the sequence tasks run when
                    // their table is cold (as here: a fresh engine per
                    // task).  The word tasks read the `l` = 1 table, built
                    // without that fold, and term vector merges by scatter,
                    // so they pass it by; the other two sites sit on every
                    // task's path.
                    None => assert!(
                        site == "merge-fold" && !task.is_sequence_sensitive(),
                        "{label}: must have degraded"
                    ),
                }
                failpoints::reset();
                // The *same* engine keeps serving on the (healed) fine path.
                let after = engine
                    .run(task, cfg)
                    .unwrap_or_else(|e| panic!("{label}: post-fault query failed: {e}"));
                assert_eq!(&after.output, oracle, "{label}: post-fault output");
                assert!(
                    after.timings.degraded.is_none(),
                    "{label}: post-fault query must run the fine path"
                );
            }
            assert!(
                fired > 0,
                "site={site} threads={threads}: no task crossed the site — a dead \
                 matrix row proves nothing"
            );
        }
    }
}

/// A fault inside the window fill — `merge-fold` in its range fold, then
/// `chunk-boundary` at its first checkpoint on the next query (a level of
/// the head/tail build inside the fill) — degrades that query to the
/// oracle answer and leaves the table's cell empty: the query after refills exactly that one
/// artifact and runs the fine path, and a warm repeat fills nothing.
#[test]
fn a_fault_in_the_window_fill_leaves_the_table_empty_for_the_next_query() {
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    for threads in [1usize, 4] {
        for task in [Task::SequenceCount, Task::RankedInvertedIndex] {
            let label = format!("{} at {threads} threads", task.name());
            let oracle = run_task(&archive, &dag, task, cfg).output;
            let engine = Engine::builder(&archive, &dag)
                .threads(threads)
                .build()
                .expect("valid archive");
            let mut fills = Vec::new();
            for site in ["merge-fold", "chunk-boundary"] {
                failpoints::enable_times(site, 1);
                let faulted = engine.run(task, cfg).expect("degraded, not failed");
                assert!(!failpoints::is_armed(site), "{label}: {site} never fired");
                assert_eq!(faulted.output, oracle, "{label}: {site} degraded output");
                assert_eq!(faulted.timings.degraded, Some(Degradation::WorkerPanic));
                fills.push(engine.analysis_fills());
            }
            assert_eq!(
                fills[0], fills[1],
                "{label}: the faulted fill published nothing"
            );
            let refilled = engine.run(task, cfg).expect("fine path");
            assert_eq!(refilled.output, oracle, "{label}: refilled output");
            assert!(refilled.timings.degraded.is_none(), "{label}");
            assert!(
                refilled.timings.merge_entries > 0,
                "{label}: this query filled"
            );
            assert_eq!(engine.analysis_fills(), fills[1] + 1, "{label}: one refill");
            let warm = engine.run(task, cfg).expect("fine path");
            assert!(warm.timings.warm, "{label}");
            assert_eq!(
                engine.analysis_fills(),
                fills[1] + 1,
                "{label}: warm repeat"
            );
        }
    }
}

/// `worker-epoch` on a *warm* sequence query faults the pass's one pool
/// epoch: the query degrades to the oracle answer, the pool heals, and the
/// next query is served warm by the fine path again.
#[test]
fn worker_epoch_on_a_warm_sequence_query_degrades_and_heals() {
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    for threads in [1usize, 4] {
        let engine = Engine::builder(&archive, &dag)
            .threads(threads)
            .build()
            .expect("valid archive");
        for task in [Task::SequenceCount, Task::RankedInvertedIndex] {
            let label = format!("{} at {threads} threads", task.name());
            let oracle = run_task(&archive, &dag, task, cfg).output;
            engine.run(task, cfg).expect("warm-up");
            let fills = engine.analysis_fills();
            failpoints::enable_times("worker-epoch", 1);
            let faulted = engine.run(task, cfg).expect("degraded, not failed");
            failpoints::reset();
            assert_eq!(faulted.output, oracle, "{label}: degraded output");
            assert_eq!(faulted.timings.degraded, Some(Degradation::WorkerPanic));
            assert!(
                engine.with_worker_pool(|pool| !pool.is_poisoned()),
                "{label}"
            );
            let healed = engine.run(task, cfg).expect("fine path");
            assert_eq!(healed.output, oracle, "{label}: healed output");
            assert!(healed.timings.degraded.is_none(), "{label}");
            assert!(healed.timings.warm, "{label}");
            assert_eq!(engine.analysis_fills(), fills, "{label}: nothing refilled");
        }
    }
}

#[test]
fn pool_heals_across_repeated_poison_cycles_with_monotonic_epochs() {
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let oracle = run_task(&archive, &dag, Task::WordCount, TaskConfig::default());
    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid archive");

    let clean = engine.run(Task::WordCount, TaskConfig::default()).unwrap();
    assert_eq!(clean.output, oracle.output);
    assert!(clean.timings.degraded.is_none());
    let mut last_epochs = engine.epochs();
    assert!(last_epochs > 0, "the clean run dispatched epochs");

    for round in 0..6 {
        // Poison: the first pool epoch of this query faults.
        failpoints::enable_times("worker-epoch", 1);
        let faulted = engine.run(Task::WordCount, TaskConfig::default()).unwrap();
        assert_eq!(faulted.output, oracle.output, "round {round}");
        assert_eq!(
            faulted.timings.degraded,
            Some(Degradation::WorkerPanic),
            "round {round}"
        );
        let healthy = engine.with_worker_pool(|pool| !pool.is_poisoned());
        assert!(healthy, "round {round}: pool must be healed");
        let epochs = engine.epochs();
        assert!(
            epochs > last_epochs,
            "round {round}: epochs must keep increasing across heals \
             ({epochs} <= {last_epochs})"
        );
        last_epochs = epochs;

        // Heal: the next query runs the fine path on the rebuilt pool.
        let healed = engine.run(Task::WordCount, TaskConfig::default()).unwrap();
        assert_eq!(healed.output, oracle.output, "round {round}");
        assert!(healed.timings.degraded.is_none(), "round {round}");
        let epochs = engine.epochs();
        assert!(
            epochs > last_epochs,
            "round {round}: healed run dispatched epochs"
        );
        last_epochs = epochs;
    }
}

/// Every kernel aborts through the driver's checkpoint: on a *warm* engine
/// (so the hook fires in the traversal's claim loop — or termVector's
/// per-file loop — not in an analysis fill), each task answers `Cancelled`,
/// poisons nothing, and its next unrestricted run is a clean fine-path
/// answer.
#[test]
fn cancellation_mid_query_returns_typed_error_and_keeps_the_session_healthy() {
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid archive");

    for task in Task::ALL {
        let oracle = run_task(&archive, &dag, task, cfg);
        let warmup = engine.run(task, cfg).unwrap();
        assert_eq!(warmup.output, oracle.output, "{}", task.name());

        // Deterministic in-flight cancellation: the observation hook cancels
        // the token the moment execution crosses the first chunk boundary,
        // so the very checkpoint that ran the hook sees the flag and aborts
        // — no timer racing the query.
        let token = CancelToken::new();
        let hook_token = token.clone();
        failpoints::observe("chunk-boundary", move || hook_token.cancel());
        let opts = QueryOptions::new().cancel_token(token);
        let err = engine
            .run_with(task, cfg, &opts)
            .expect_err("hook cancels during the query");
        assert_eq!(err, EngineError::Cancelled, "{}", task.name());
        failpoints::reset();

        // Clean abort: nothing poisoned, the next unrestricted query is
        // served by the fine path and matches the oracle.  It is still warm:
        // no analysis cell was left empty, so the abort came out of the
        // traversal, not out of a fill.
        assert!(engine.with_worker_pool(|pool| !pool.is_poisoned()));
        let after = engine.run(task, cfg).unwrap();
        assert_eq!(after.output, oracle.output, "{}", task.name());
        assert!(after.timings.degraded.is_none(), "{}", task.name());
        assert!(after.timings.warm, "{}", task.name());
    }
}

/// The inverted index's one pass over the word table checkpoints once per
/// worker, before its key range: a warm invertedIndex cancelled there, at
/// every pool width, answers `Cancelled` — not a panic, not a degraded
/// answer — poisons nothing, and the next unrestricted query is a warm
/// fine-path answer equal to the oracle.
#[test]
fn a_cancelled_warm_inverted_index_answers_cancelled() {
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    let oracle = run_task(&archive, &dag, Task::InvertedIndex, cfg).output;
    for threads in [1usize, 2, 4, 8] {
        let label = format!("{threads} threads");
        let engine = Engine::builder(&archive, &dag)
            .threads(threads)
            .build()
            .expect("valid archive");
        engine.run(Task::InvertedIndex, cfg).expect("warm-up");
        let token = CancelToken::new();
        let hook_token = token.clone();
        failpoints::observe("chunk-boundary", move || hook_token.cancel());
        let opts = QueryOptions::new().cancel_token(token);
        let err = engine.run_with(Task::InvertedIndex, cfg, &opts);
        failpoints::reset();
        assert_eq!(err.expect_err(&label), EngineError::Cancelled, "{label}");
        assert!(
            engine.with_worker_pool(|pool| !pool.is_poisoned()),
            "{label}"
        );
        let after = engine.run(Task::InvertedIndex, cfg).expect("fine path");
        assert_eq!(after.output, oracle, "{label}");
        assert!(after.timings.degraded.is_none(), "{label}");
        assert!(after.timings.warm, "{label}");
    }
}

/// An abort after accumulation: a warm termVector cancelled at the k-th
/// chunk boundary, once a worker has already accumulated whole files into
/// its dense counts, answers `Cancelled` and poisons nothing.  The counts
/// die with the query, so the next unrestricted query is a warm fine-path
/// answer equal to the oracle.
#[test]
fn term_vector_cancelled_after_accumulating_files_leaves_the_next_query_clean() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    let oracle = run_task(&archive, &dag, Task::TermVector, cfg).output;
    for threads in [1usize, 4] {
        let engine = Engine::builder(&archive, &dag)
            .threads(threads)
            .build()
            .expect("valid archive");
        engine.run(Task::TermVector, cfg).expect("warm-up");
        for k in [2usize, 3, 5] {
            let label = format!("{threads} threads, cancelled at crossing {k}");
            let token = CancelToken::new();
            let hook_token = token.clone();
            let crossings = AtomicUsize::new(0);
            failpoints::observe("chunk-boundary", move || {
                if crossings.fetch_add(1, Ordering::Relaxed) + 1 == k {
                    hook_token.cancel();
                }
            });
            let opts = QueryOptions::new().cancel_token(token);
            let err = engine.run_with(Task::TermVector, cfg, &opts);
            failpoints::reset();
            assert_eq!(err.expect_err(&label), EngineError::Cancelled, "{label}");
            assert!(
                engine.with_worker_pool(|pool| !pool.is_poisoned()),
                "{label}"
            );
            let after = engine.run(Task::TermVector, cfg).expect("fine path");
            assert_eq!(after.output, oracle, "{label}");
            assert!(after.timings.degraded.is_none(), "{label}");
            assert!(after.timings.warm, "{label}");
        }
    }
}

#[test]
fn deadline_mid_query_returns_typed_error_in_bounded_time() {
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&large_corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid archive");

    // Deterministic in-flight expiry: the hook stalls the first chunk
    // boundary past the deadline, so that same checkpoint trips it.
    failpoints::observe("chunk-boundary", || {
        std::thread::sleep(Duration::from_millis(5));
    });
    let opts = QueryOptions::new().deadline(Duration::from_millis(1));
    let err = engine
        .run_with(
            Task::SequenceCount,
            TaskConfig { sequence_length: 3 },
            &opts,
        )
        .expect_err("deadline expires during the query");
    assert_eq!(err, EngineError::DeadlineExceeded);
    failpoints::reset();

    // The session survives: the identical query, unrestricted, completes
    // and matches the oracle.
    assert!(engine.with_worker_pool(|pool| !pool.is_poisoned()));
    let cfg = TaskConfig { sequence_length: 3 };
    let oracle = run_task(&archive, &dag, Task::SequenceCount, cfg);
    let after = engine.run(Task::SequenceCount, cfg).unwrap();
    assert_eq!(after.output, oracle.output);
    assert!(after.timings.degraded.is_none());
}

/// A fault injected into **one** query of a concurrent mix must stay
/// per-query: at every failpoint, all answers from all client threads
/// remain oracle-identical, at most the single query that absorbed the
/// armed hit degrades, and the shared engine keeps serving clean fine-path
/// answers afterwards.
#[test]
fn concurrent_fault_isolation_at_every_failpoint() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let mix: Vec<(Task, TaskConfig)> = Task::ALL
        .into_iter()
        .map(|t| (t, TaskConfig::default()))
        .collect();
    let oracle: Vec<std::sync::Arc<AnalyticsOutput>> = mix
        .iter()
        .map(|&(task, cfg)| run_task(&archive, &dag, task, cfg).output)
        .collect();

    for site in FAILPOINTS {
        let engine = Engine::builder(&archive, &dag)
            .threads(4)
            .build()
            .expect("valid archive");
        failpoints::enable_times(site, 1);
        let degraded = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for c in 0..4usize {
                let engine = &engine;
                let mix = &mix;
                let oracle = &oracle;
                let degraded = &degraded;
                s.spawn(move || {
                    for i in 0..2 * mix.len() {
                        let k = (c + i) % mix.len();
                        let (task, cfg) = mix[k];
                        let exec = engine.run(task, cfg).unwrap_or_else(|e| {
                            panic!("site={site} client {c}: query failed: {e}")
                        });
                        assert_eq!(
                            exec.output, oracle[k],
                            "site={site} client {c}: a fault in one query \
                             poisoned another's answer"
                        );
                        if exec.timings.degraded.is_some() {
                            degraded.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        failpoints::reset();
        assert!(
            degraded.load(Ordering::Relaxed) <= 1,
            "site={site}: one armed hit may degrade at most the query that \
             absorbed it"
        );
        // The same engine keeps serving clean fine-path answers.
        let after = engine
            .run(Task::WordCount, TaskConfig::default())
            .expect("post-round query");
        assert_eq!(after.output, oracle[0], "site={site}: post-round output");
        assert!(
            after.timings.degraded.is_none(),
            "site={site}: post-round query must run the fine path"
        );
    }
}

/// Cancelling one concurrent query must not cancel, degrade, or corrupt
/// the queries of other client threads — the cancel token travels with
/// exactly one query's control.
#[test]
fn cancellation_in_one_concurrent_query_leaves_others_untouched() {
    let _guard = serial();
    failpoints::reset();
    let archive = compress_corpus(&corpus(), CompressOptions::default());
    let dag = Dag::from_grammar(&archive.grammar);
    let cfg = TaskConfig::default();
    let oracle = run_task(&archive, &dag, Task::WordCount, cfg);
    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid archive");

    // The observation hook cancels the victim's token the moment *any*
    // execution crosses a chunk boundary; only the victim carries the
    // token, so only the victim aborts.
    let token = CancelToken::new();
    let hook_token = token.clone();
    failpoints::observe("chunk-boundary", move || hook_token.cancel());
    let victim_result = std::thread::scope(|s| {
        let victim = s.spawn(|| {
            let opts = QueryOptions::new().cancel_token(token);
            engine.run_with(Task::WordCount, cfg, &opts)
        });
        for c in 0..3usize {
            let engine = &engine;
            let oracle = &oracle;
            s.spawn(move || {
                for i in 0..8 {
                    let exec = engine
                        .run(Task::WordCount, cfg)
                        .unwrap_or_else(|e| panic!("bystander {c} iteration {i} failed: {e}"));
                    assert_eq!(
                        exec.output, oracle.output,
                        "bystander {c} iteration {i}: output corrupted"
                    );
                    assert!(
                        exec.timings.degraded.is_none(),
                        "bystander {c} iteration {i}: must not degrade"
                    );
                }
            });
        }
        victim.join().expect("victim thread must not panic")
    });
    failpoints::reset();
    assert_eq!(
        victim_result.expect_err("the victim's token is always cancelled"),
        EngineError::Cancelled,
        "the victim aborts with the typed cancellation error"
    );

    // The session survives: an unrestricted query serves the fine path.
    let after = engine.run(Task::WordCount, cfg).expect("post-round query");
    assert_eq!(after.output, oracle.output);
    assert!(after.timings.degraded.is_none());
}
