//! Results-cache property tests: random interleavings of `(task, cfg)`
//! request sequences against a shared, cache-enabled [`Engine`].  The
//! invariants under test:
//!
//! * cached answers are always byte-identical to a fresh compute (the
//!   sequential oracle);
//! * distinct configs never alias a cache key — a `sequence_length` change
//!   always reaches a different entry;
//! * the hit/miss counters reconcile with the request log: sequentially,
//!   `misses == distinct keys` and `hits == requests − distinct keys`;
//!   concurrently, `hits + misses == requests` and
//!   `misses >= distinct keys` (same-key races may compute twice, never
//!   serve a wrong answer).
//!
//! Eviction under a byte budget too small for the key set is tested inside
//! the crate (`fine_grained::engine` and `fine_grained::results_cache`),
//! where a test can build a cache with a budget other than the `const`.

use proptest::prelude::*;

use g_tadoc_repro::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

fn cache_corpus() -> Vec<(String, String)> {
    let shared = "one two three four five six seven eight nine ten ".repeat(4);
    (0..10)
        .map(|i| (format!("doc{i}"), format!("{shared} tag{} {shared}", i % 3)))
        .collect()
}

/// Decodes a request id into a `(task, cfg)` pair: six tasks × sequence
/// lengths 1..=4 — 24 distinct cache keys.
fn decode(req: u8) -> (Task, TaskConfig) {
    let task = Task::ALL[(req as usize) % 6];
    let l = 1 + (req as usize / 6) % 4;
    (task, TaskConfig { sequence_length: l })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Sequential random request logs: every answer oracle-identical, and
    // the counters reconcile exactly with the log.
    #[test]
    fn random_request_log_reconciles_with_counters(
        reqs in proptest::collection::vec(0u8..24, 4..40),
    ) {
        let corpus = cache_corpus();
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let engine = Engine::builder(&archive, &dag)
            .threads(2)
            .results_cache(true)
            .build()
            .expect("valid engine config");

        let mut seen: HashSet<u8> = HashSet::new();
        for (i, &req) in reqs.iter().enumerate() {
            let (task, cfg) = decode(req);
            let fresh = run_task(&archive, &dag, task, cfg);
            let exec = engine.run(task, cfg).expect("valid task config");
            prop_assert_eq!(
                &exec.output, &fresh.output,
                "request {} ({} l={}): cached answer diverged from fresh compute",
                i, task.name(), cfg.sequence_length
            );
            let stats = exec.timings.results_cache.expect("cache enabled");
            prop_assert_eq!(
                stats.hit,
                seen.contains(&req),
                "request {}: hit iff the key was requested before", i
            );
            seen.insert(req);
        }
        let (hits, misses) = engine.results_cache_counters().expect("cache enabled");
        prop_assert_eq!(misses, seen.len() as u64, "misses == distinct keys");
        prop_assert_eq!(
            hits + misses,
            reqs.len() as u64,
            "every request probes the cache exactly once"
        );
    }

    // Distinct configs never alias: interleaving two sequence lengths of
    // the same task always yields the two distinct oracle outputs, never a
    // stale entry from the other config.
    #[test]
    fn distinct_configs_never_alias_a_key(
        la in 1usize..=4,
        offset in 1usize..=3,
        order in proptest::collection::vec(0u8..2, 4..16),
    ) {
        let lb = (la + offset - 1) % 4 + 1; // distinct from la by construction
        let corpus = cache_corpus();
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let engine = Engine::builder(&archive, &dag)
            .threads(2)
            .results_cache(true)
            .build()
            .expect("valid engine config");
        let cfg_a = TaskConfig { sequence_length: la };
        let cfg_b = TaskConfig { sequence_length: lb };
        let oracle_a = run_task(&archive, &dag, Task::SequenceCount, cfg_a);
        let oracle_b = run_task(&archive, &dag, Task::SequenceCount, cfg_b);

        for (i, &pick) in order.iter().enumerate() {
            let (cfg, oracle) = if pick == 0 {
                (cfg_a, &oracle_a)
            } else {
                (cfg_b, &oracle_b)
            };
            let exec = engine.run(Task::SequenceCount, cfg).expect("valid config");
            prop_assert_eq!(
                &exec.output, &oracle.output,
                "step {}: l={} must reach its own cache entry",
                i, cfg.sequence_length
            );
        }
        let (_, misses) = engine.results_cache_counters().expect("cache enabled");
        let distinct = order.iter().collect::<HashSet<_>>().len() as u64;
        prop_assert_eq!(misses, distinct, "one miss per distinct config");
    }

    // Concurrent random interleavings: client threads replay rotated
    // copies of the request log against one shared cache-enabled engine.
    // Answers stay oracle-identical and the counters reconcile as probes.
    #[test]
    fn concurrent_interleavings_stay_oracle_identical(
        reqs in proptest::collection::vec(0u8..24, 8..32),
    ) {
        let corpus = cache_corpus();
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let engine = Engine::builder(&archive, &dag)
            .threads(2)
            .results_cache(true)
            .build()
            .expect("valid engine config");

        let distinct: HashSet<u8> = reqs.iter().copied().collect();
        let oracle: Vec<(u8, Arc<AnalyticsOutput>)> = distinct
            .iter()
            .map(|&req| {
                let (task, cfg) = decode(req);
                (req, run_task(&archive, &dag, task, cfg).output)
            })
            .collect();
        let lookup = |req: u8| -> &Arc<AnalyticsOutput> {
            &oracle.iter().find(|(r, _)| *r == req).expect("precomputed").1
        };

        let clients = 4usize;
        std::thread::scope(|s| {
            for c in 0..clients {
                let engine = &engine;
                let reqs = &reqs;
                let lookup = &lookup;
                s.spawn(move || {
                    // Each client replays the log rotated by its id, so the
                    // same keys collide across threads in different orders.
                    for i in 0..reqs.len() {
                        let req = reqs[(c + i) % reqs.len()];
                        let (task, cfg) = decode(req);
                        let exec = engine.run(task, cfg).expect("valid config");
                        assert_eq!(
                            &exec.output,
                            lookup(req),
                            "client {c}: concurrent cached answer diverged"
                        );
                    }
                });
            }
        });

        let (hits, misses) = engine.results_cache_counters().expect("cache enabled");
        prop_assert_eq!(
            hits + misses,
            (clients * reqs.len()) as u64,
            "every request probes the cache exactly once"
        );
        prop_assert!(
            misses >= distinct.len() as u64,
            "each distinct key misses at least once (races may add more)"
        );
    }
}
