//! `session`: two callers sharing one warm `Engine` per corpus, results
//! cache **off**.
//!
//! Traversal → `ShardBuf` merge → finalize do all the work; sequitur and
//! the server do none.  Two callers exercise the worker pool's `try_lock`
//! admission, the inline fallback and scratch leasing.
//!
//! 2 callers; op = `Engine::run(task)` on the key's warm engine → digest
//! check; 12 keys (2 corpora × 6 tasks).  The warm-up round that fills the
//! analysis layer belongs to set-up.

use std::time::Instant;

use sequitur::Dag;
use tadoc::Engine;

use super::{
    check_digest, common_layer_metrics, measure, median_self_ms, oracle_digests, six_task_sum,
    BenchError, Corpus, CorpusFacts, Ctx, Key, Outcome, Phases, CORPORA, ENGINE_THREADS,
    SETUP_REPS,
};
use crate::metrics::six_tasks;
use crate::stats::geomean;
use crate::trace::{Layers, Tag, Tracer};

const CALLERS: usize = 2;

fn warm_query(
    key: &Key,
    engine: &Engine<'_>,
    want: u64,
    tag: Tag,
    tracer: &mut Tracer,
) -> Result<Phases, BenchError> {
    let exec = tracer.time("tadoc.engine.run", tag, || engine.run(key.task, key.cfg()))?;
    let digest = tracer.time("tadoc.results.digest", tag, || exec.output.digest());
    check_digest(key, digest, want)?;
    Ok(Phases::of(tag, &exec.timings))
}

/// One set-up: corpora, DAGs, oracle, engines, warm-up round.  The last
/// repetition goes on to measure; `None` means "repeat".
fn set_up_and_measure(
    ctx: &Ctx,
    keys: &[Key],
    setup_s: &mut Vec<f64>,
    tracer: &mut Tracer,
) -> Result<Option<Outcome>, BenchError> {
    let rep = setup_s.len() as u32;
    let t0 = Instant::now();
    let corpora: Vec<Corpus> = (0..CORPORA.len())
        .map(|id| Corpus::prepare(id, ctx.seed, rep, tracer))
        .collect();
    let dags: Vec<Dag> = corpora.iter().map(|c| c.dag(rep, tracer)).collect();
    let oracle = oracle_digests(keys, &corpora, &dags, rep, tracer);
    let mut engines = Vec::new();
    for (corpus, dag) in corpora.iter().zip(&dags) {
        let tag = Tag::of_corpus(corpus.id, rep);
        engines.push(tracer.time("tadoc.engine.build", tag, || {
            Engine::builder(&corpus.archive, dag)
                .threads(ENGINE_THREADS)
                .results_cache(false)
                .build()
        })?);
    }
    let mut untraced = Tracer::new(t0, false);
    for (k, key) in keys.iter().enumerate() {
        let tag = Tag::of_key(key.corpus, k, rep);
        warm_query(key, &engines[key.corpus], oracle[k], tag, &mut untraced)?;
    }
    setup_s.push(t0.elapsed().as_secs_f64());
    if setup_s.len() < SETUP_REPS {
        return Ok(None);
    }

    let epochs = || engines.iter().map(Engine::epochs).sum::<u64>();
    let epochs_before = epochs();
    let key_corpus: Vec<usize> = keys.iter().map(|k| k.corpus).collect();
    let mut callers: [Vec<Phases>; CALLERS] = Default::default();
    let windows = measure(
        ctx,
        &key_corpus,
        &mut callers,
        tracer,
        |log, k, tag, tracer| {
            let phases = warm_query(&keys[k], &engines[keys[k].corpus], oracle[k], tag, tracer)?;
            if tracer.is_on() {
                log.push(phases);
            }
            Ok(())
        },
    );
    let epochs_spent = epochs() - epochs_before;

    let facts: Vec<CorpusFacts> = corpora.iter().map(CorpusFacts::of).collect();
    let mut layers = Default::default();
    if let Some(traced) = &windows.traced {
        let spans = Layers::new(tracer.spans());
        layers = common_layer_metrics(&spans, keys, &facts, &windows.untraced, traced);
        let phases: Vec<Phases> = callers.concat();
        for (id, c) in CORPORA.iter().enumerate() {
            let mut warm = Vec::new();
            for (k, key) in keys.iter().enumerate().filter(|(_, key)| key.corpus == id) {
                let ms = median_self_ms(&spans, "tadoc.engine.run", |t| t.key as usize == k);
                layers.extend(
                    ms.map(|v| (format!("tadoc.fine.{c}.{}.warm_ms", key.task_label()), v)),
                );
                warm.extend(ms);
            }
            let n = keys.len();
            let sums = [
                ("warm_init_ms", six_task_sum(&phases, id, n, |p| p.init_ms)),
                (
                    "warm_traversal_ms",
                    six_task_sum(&phases, id, n, |p| p.traversal_ms),
                ),
                (
                    "warm_finalize_ms",
                    six_task_sum(&phases, id, n, |p| p.finalize_ms),
                ),
            ];
            for (name, value) in sums {
                layers.extend(value.map(|v| (format!("tadoc.fine.{c}.{name}"), v)));
            }
            // Base of the ratio: the sequential TADOC baseline timed in set-up.
            let sequential = layers
                .get(&format!("tadoc.sequential.{c}.geomean_ms"))
                .copied();
            if let (Some(seq), Some(fine)) = (sequential, geomean(&warm)) {
                layers.insert(format!("tadoc.fine.{c}.speedup_vs_sequential"), seq / fine);
            }
        }
        let ops = windows.untraced.attempted + traced.attempted;
        layers.insert(
            "tadoc.engine.epochs_per_op".into(),
            epochs_spent as f64 / ops as f64,
        );
        let degraded = phases.iter().filter(|p| p.degraded).count();
        layers.insert("tadoc.engine.degraded".into(), degraded as f64);
    }
    Ok(Some(Outcome {
        key_labels: keys.iter().map(Key::label).collect(),
        callers: CALLERS,
        setup_s: setup_s.clone(),
        windows,
        corpora: facts,
        layers,
    }))
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, BenchError> {
    let keys: Vec<Key> = (0..CORPORA.len()).flat_map(six_tasks).collect();
    let mut setup_s = Vec::new();
    loop {
        if let Some(outcome) = set_up_and_measure(ctx, &keys, &mut setup_s, tracer)? {
            return Ok(outcome);
        }
    }
}
