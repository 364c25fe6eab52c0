//! `oneshot`: the paper's scenario — initialization plus traversal, from a
//! stored archive, for one query.
//!
//! Archive decode, grammar validation, DAG build and the analysis-layer
//! fill do most of the work, and every op is a results-cache *miss +
//! insert* (the cache's write path).
//!
//! 1 caller; op = `TadocArchive::from_bytes` → `Dag::from_grammar` →
//! `Engine::builder(..).threads(2).results_cache(true).build()` → one cold
//! `run(task)` → digest check; 12 keys (2 corpora × 6 tasks).

use std::time::Instant;

use sequitur::{Dag, TadocArchive};
use tadoc::Engine;

use super::{
    check_digest, common_layer_metrics, measure, median_cycle_sum, median_self_ms, oracle_digests,
    six_task_sum, BenchError, Corpus, CorpusFacts, Ctx, Key, Outcome, Phases, CORPORA,
    ENGINE_THREADS, SETUP_REPS,
};
use crate::metrics::six_tasks;
use crate::trace::{Layers, Tag, Tracer};

/// What the traced run keeps per op, besides its spans.
struct ColdOp {
    phases: Phases,
    /// `Engine::analysis_fills()` after the op's single query.
    fills: u64,
}

fn cold_query(
    key: &Key,
    bytes: &[u8],
    want: u64,
    tag: Tag,
    tracer: &mut Tracer,
) -> Result<ColdOp, BenchError> {
    let archive = tracer.time("sequitur.archive.decode", tag, || {
        TadocArchive::from_bytes(bytes)
    })?;
    let dag = tracer.time("sequitur.dag.build", tag, || {
        Dag::from_grammar(&archive.grammar)
    });
    let engine = tracer.time("tadoc.engine.build", tag, || {
        Engine::builder(&archive, &dag)
            .threads(ENGINE_THREADS)
            .results_cache(true)
            .build()
    })?;
    let exec = tracer.time("tadoc.engine.run", tag, || engine.run(key.task, key.cfg()))?;
    let digest = tracer.time("tadoc.results.digest", tag, || exec.output.digest());
    check_digest(key, digest, want)?;
    Ok(ColdOp {
        phases: Phases::of(tag, &exec.timings),
        fills: engine.analysis_fills(),
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, BenchError> {
    let keys: Vec<Key> = (0..CORPORA.len()).flat_map(six_tasks).collect();
    let mut setup_s = Vec::new();
    let mut corpora: Vec<Corpus> = Vec::new();
    let mut oracle = Vec::new();
    for rep in 0..SETUP_REPS as u32 {
        corpora.clear();
        let t0 = Instant::now();
        corpora = (0..CORPORA.len())
            .map(|id| Corpus::prepare(id, ctx.seed, rep, tracer))
            .collect();
        let dags: Vec<Dag> = corpora.iter().map(|c| c.dag(rep, tracer)).collect();
        oracle = oracle_digests(&keys, &corpora, &dags, rep, tracer);
        // One throwaway op, outside the trace: first-touch page faults and
        // allocator growth are set-up, not the first key's latency.
        let mut untraced = Tracer::new(t0, false);
        let tag = Tag::of_key(0, 0, rep);
        cold_query(&keys[0], &corpora[0].bytes, oracle[0], tag, &mut untraced)?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let key_corpus: Vec<usize> = keys.iter().map(|k| k.corpus).collect();
    let mut caller = [Vec::<ColdOp>::new()];
    let windows = measure(
        ctx,
        &key_corpus,
        &mut caller,
        tracer,
        |log, k, tag, tracer| {
            let done = cold_query(
                &keys[k],
                &corpora[keys[k].corpus].bytes,
                oracle[k],
                tag,
                tracer,
            )?;
            if tracer.is_on() {
                log.push(done);
            }
            Ok(())
        },
    );

    let facts: Vec<CorpusFacts> = corpora.iter().map(CorpusFacts::of).collect();
    let mut layers = Default::default();
    if let Some(traced) = &windows.traced {
        let spans = Layers::new(tracer.spans());
        layers = common_layer_metrics(&spans, &keys, &facts, &windows.untraced, traced);
        let [log] = &caller;
        let phases: Vec<Phases> = log.iter().map(|op| op.phases).collect();
        for (id, c) in CORPORA.iter().enumerate() {
            for (k, key) in keys.iter().enumerate().filter(|(_, key)| key.corpus == id) {
                let cold = median_self_ms(&spans, "tadoc.engine.run", |t| t.key as usize == k);
                layers.extend(
                    cold.map(|v| (format!("tadoc.fine.{c}.{}.cold_ms", key.task_label()), v)),
                );
            }
            let n = keys.len();
            let sums = [
                (
                    "cold_shared_init_ms",
                    six_task_sum(&phases, id, n, |p| p.shared_init_ms),
                ),
                (
                    "cold_traversal_ms",
                    six_task_sum(&phases, id, n, |p| p.traversal_ms),
                ),
                (
                    "cold_finalize_ms",
                    six_task_sum(&phases, id, n, |p| p.finalize_ms),
                ),
            ];
            for (name, value) in sums {
                layers.extend(value.map(|v| (format!("tadoc.fine.{c}.{name}"), v)));
            }
            let fills = median_cycle_sum(
                log.iter()
                    .filter(|op| op.phases.tag.corpus as usize == id)
                    .map(|op| (super::cycle_of(&op.phases.tag, n), op.fills as f64)),
            );
            layers.extend(fills.map(|v| (format!("tadoc.engine.{c}.analysis_fills"), v)));
        }
    }
    Ok(Outcome {
        key_labels: keys.iter().map(Key::label).collect(),
        callers: 1,
        setup_s,
        windows,
        corpora: facts,
        layers,
    })
}
