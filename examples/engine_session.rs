//! Long-lived `Engine` session: the serving pattern the session API exists
//! for.  One compressed archive is queried many times — six tasks, twice
//! each — on a single engine that keeps its worker pool parked and its
//! analysis layer (DAG levels, rule weights, the rule × file matrix,
//! window tables, sequence work items) cached between queries.
//!
//! ```text
//! cargo run --release --example engine_session
//! ```

use g_tadoc_repro::prelude::*;
use tadoc::apps::TaskExecution;

fn main() {
    println!("generating the NSFRAA-like dataset A (many small files) ...");
    let corpus = DatasetPreset::new(DatasetId::A).generate_scaled(0.3);
    let archive = corpus.compress();
    let dag = Dag::from_grammar(&archive.grammar);
    println!(
        "  {} files, {} tokens, {} rules\n",
        corpus.files.len(),
        corpus.total_tokens(),
        archive.grammar.num_rules()
    );

    // The builder validates instead of clamping: nonsense knobs are typed
    // errors at build time, not silent single-threaded sessions.
    match Engine::builder(&archive, &dag).threads(0).build() {
        Err(e) => println!("builder rejects bad configuration: {e}"),
        Ok(_) => unreachable!("zero threads must not build"),
    }

    let engine = Engine::builder(&archive, &dag)
        .threads(4)
        .build()
        .expect("valid engine configuration");
    println!("built an engine session (pool parked, cache empty)\n");

    // All six tasks, twice: the first pass fills the cache (each task
    // computes only what no earlier task already cached), the second pass
    // is served entirely warm.
    let cfg = TaskConfig::default();
    let pass = || -> Vec<TaskExecution> {
        Task::ALL
            .into_iter()
            .map(|task| engine.run(task, cfg).expect("valid task configuration"))
            .collect()
    };
    println!("== pass 1: cold session (cache filling) ==");
    let cold = pass();
    for (task, exec) in Task::ALL.into_iter().zip(&cold) {
        println!(
            "{:<22} init {:>9.1} µs (shared {:>9.1} µs)  traversal {:>9.1} µs",
            task.name(),
            exec.timings.init.as_secs_f64() * 1e6,
            exec.timings.shared_init.as_secs_f64() * 1e6,
            exec.timings.traversal.as_secs_f64() * 1e6,
        );
    }

    println!("\n== pass 2: warm session (everything cached) ==");
    let warm = pass();
    for ((task, cold_exec), warm_exec) in Task::ALL.into_iter().zip(&cold).zip(&warm) {
        assert_eq!(
            cold_exec.output, warm_exec.output,
            "warm output must be byte-identical"
        );
        assert!(warm_exec.timings.warm, "second pass must be warm");
        let cold_init = cold_exec.timings.init.as_secs_f64() * 1e6;
        let warm_init = warm_exec.timings.init.as_secs_f64() * 1e6;
        println!(
            "{:<22} init {:>9.1} µs -> {:>7.2} µs  ({:>6.0}x less init)",
            task.name(),
            cold_init,
            warm_init,
            if warm_init > 0.0 {
                cold_init / warm_init
            } else {
                f64::INFINITY
            },
        );
    }

    // The one scan and sort is the sequence tasks' window fill, which the
    // first of them runs inside its shared init; every warm query is one
    // pass over a cached table, then the finalize.
    println!("\n== cold window fill, by stage ==");
    for (task, exec) in Task::ALL.into_iter().zip(&cold) {
        let t = &exec.timings;
        if t.merge_entries > 0 {
            println!(
                "{:<22} shared init {:>8.1} µs includes scan {:>8.1} + window sort {:>8.1} ({} windows)",
                task.name(),
                t.shared_init.as_secs_f64() * 1e6,
                t.scan.as_secs_f64() * 1e6,
                t.window_sort.as_secs_f64() * 1e6,
                t.merge_entries,
            );
        }
    }
    println!("\n== warm traversal ==");
    for (task, exec) in Task::ALL.into_iter().zip(&warm) {
        let t = &exec.timings;
        println!(
            "{:<22} traversal {:>8.1} µs = pass + finalize {:>8.1}",
            task.name(),
            t.traversal.as_secs_f64() * 1e6,
            t.finalize.as_secs_f64() * 1e6,
        );
    }

    println!(
        "\npool dispatched {} barrier epochs over the whole session — one \
         thread spawn per worker, ever",
        engine.epochs()
    );

    // The sequential TADOC reference agrees byte-for-byte with the session.
    let sequential = run_task(&archive, &dag, Task::WordCount, cfg);
    assert_eq!(sequential.output, cold[0].output);
    println!("sequential reference output matches the engine session output");
}
