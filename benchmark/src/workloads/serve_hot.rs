//! `serve_hot`: a real `Server` on loopback answering from its results
//! cache.
//!
//! After the warm-up round every query is a results-cache hit, so framing,
//! the admission queue, handler↔executor hops, the hit's table clone, the
//! codec and the socket do the work and the engine executes nothing.  Small
//! responses (`wordCount`, `sort`) expose per-request overhead, large ones
//! (`termVector`, `rankedInvertedIndex`) per-byte cost.
//!
//! 2 connections (one request in flight each, so the loop is closed and no
//! backlog can form — open-loop rates are not offered); op =
//! `Client::query` → digest check; 8 keys on `manyfiles`.
//!
//! The traced run adds the *ladder*: the same 8 keys pushed on one thread
//! through each layer's public function, no socket.  What the socket run
//! takes beyond the ladder's sum is `server.server.unattributed_ms`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sequitur::Dag;
use server::framing::{write_frame, FrameReader, ReadOutcome};
use server::protocol::{
    decode_header, encode_request, encode_response, parse_request, parse_response, QueryRequest,
    HEADER_LEN,
};
use server::queue::{AdmissionQueue, Push};
use server::{Client, QueryOutcome, Request, Response, Server, ServerConfig, StatsSnapshot};
use tadoc::Engine;

use super::{
    check_digest, common_layer_metrics, cycle_of, measure, median_cycle_sum, oracle_digests,
    BenchError, Corpus, CorpusFacts, Ctx, Key, Outcome, Windows, ENGINE_THREADS, SETUP_REPS,
    TRACED_RUN_SPLIT,
};
use crate::metrics::hot_keys;
use crate::stats::median;
use crate::trace::{Layers, Tag, Tracer};

const CONNECTIONS: usize = 2;

/// Round trips of a `Stats` frame timed for `server.server.stats_rtt_us`.
const STATS_ROUND_TRIPS: usize = 200;

/// Fewest ladder cycles, however short the window.
const MIN_LADDER_CYCLES: u32 = 5;

/// The ladder's layers in pipeline order: span name, metric name, and the
/// factor from milliseconds to the metric's unit.
const LADDER: [(&str, &str, f64); 8] = [
    (
        "server.protocol.encode_request",
        "server.protocol.encode_request_us",
        1e3,
    ),
    (
        "server.protocol.parse_request",
        "server.protocol.parse_request_us",
        1e3,
    ),
    ("server.queue.hop", "server.queue.hop_us", 1e3),
    ("tadoc.engine.cache_hit", "tadoc.engine.cache_hit_ms", 1.0),
    (
        "server.protocol.encode_response",
        "server.protocol.encode_response_ms",
        1.0,
    ),
    (
        "server.framing.write_read",
        "server.framing.write_read_ms",
        1.0,
    ),
    (
        "server.protocol.decode_response",
        "server.protocol.decode_response_ms",
        1.0,
    ),
    ("tadoc.results.digest", "tadoc.results.digest_ms", 1.0),
];

fn hot_query(
    key: &Key,
    client: &mut Client,
    want: u64,
    tag: Tag,
    tracer: &mut Tracer,
) -> Result<(), BenchError> {
    let answer = tracer.time("server.client.query", tag, || {
        client.query(key.task, key.cfg())
    })?;
    match answer {
        QueryOutcome::Ok(out) => {
            let digest = tracer.time("tadoc.results.digest", tag, || out.digest());
            check_digest(key, digest, want)
        }
        QueryOutcome::Overloaded {
            queue_depth,
            capacity,
        } => Err(BenchError::Check(format!(
            "{}: shed at queue depth {queue_depth}/{capacity}",
            key.label()
        ))),
        QueryOutcome::Denied(e) => Err(BenchError::Check(format!(
            "{}: denied ({:?}): {}",
            key.label(),
            e.code,
            e.message
        ))),
    }
}

/// What the socket run takes beyond the sum of the ladder's layers: socket
/// copies, thread hops, the scheduler, and two connections sharing cores.
pub fn unattributed_ms(observed_cycle_ms: f64, ladder_ms: &[f64]) -> f64 {
    observed_cycle_ms - ladder_ms.iter().sum::<f64>()
}

/// One key through every layer's public function, on this thread.
fn ladder_step(
    key: &Key,
    want: u64,
    engine: &Engine<'_>,
    queue: &AdmissionQueue<Request>,
    reader: &mut FrameReader,
    tag: Tag,
    t: &mut Tracer,
) -> Result<usize, BenchError> {
    let request = Request::Query(QueryRequest {
        task: key.task,
        cfg: key.cfg(),
        deadline_ms: None,
    });
    let frame = t.time("server.protocol.encode_request", tag, || {
        encode_request(&request)
    });
    let parsed = t.time("server.protocol.parse_request", tag, || {
        let (kind, len) = decode_header(&frame)?;
        parse_request(kind, &frame[HEADER_LEN..HEADER_LEN + len])
    })?;
    let admitted = t.time("server.queue.hop", tag, || match queue.try_push(parsed) {
        Push::Queued { .. } => queue.drain(1).and_then(|mut batch| batch.pop()),
        Push::Full(_) | Push::Closed(_) => None,
    });
    let Some(Request::Query(query)) = admitted else {
        return Err(BenchError::Check(
            "the admission queue lost a request".into(),
        ));
    };
    let exec = t.time("tadoc.engine.cache_hit", tag, || {
        engine.run(query.task, query.cfg)
    })?;
    if !exec.timings.results_cache.is_some_and(|c| c.hit) {
        return Err(BenchError::Check(format!(
            "{}: not a results-cache hit",
            key.label()
        )));
    }
    let response = Response::Result(exec.output);
    let bytes = t.time("server.protocol.encode_response", tag, || {
        encode_response(&response)
    });
    drop(response);
    let response_bytes = bytes.len();
    let read = t.time("server.framing.write_read", tag, || {
        let mut pipe = Vec::with_capacity(bytes.len());
        write_frame(&mut pipe, &bytes)?;
        drop(bytes);
        reader
            .read_frame(&mut pipe.as_slice())
            .map_err(|e| BenchError::Check(format!("frame read: {e}")))
    })?;
    let ReadOutcome::Frame { kind, payload } = read else {
        return Err(BenchError::Check(
            "a whole frame was written but not read back".into(),
        ));
    };
    let decoded = t.time("server.protocol.decode_response", tag, || {
        parse_response(kind, &payload)
    })?;
    drop(payload);
    let Response::Result(out) = decoded else {
        return Err(BenchError::Check(
            "a result frame decoded as something else".into(),
        ));
    };
    let digest = t.time("tadoc.results.digest", tag, || out.digest());
    check_digest(key, digest, want)?;
    Ok(response_bytes)
}

/// Runs the ladder for `window` (at least [`MIN_LADDER_CYCLES`] cycles) and
/// adds its metrics to `layers`.  Returns the per-cycle sum of each layer,
/// in milliseconds, in [`LADDER`] order.
fn ladder(
    window: Duration,
    keys: &[Key],
    oracle: &[u64],
    corpus: &Corpus,
    dag: &Dag,
    tracer: &mut Tracer,
    layers: &mut BTreeMap<String, f64>,
) -> Result<Vec<f64>, BenchError> {
    let engine = Engine::builder(&corpus.archive, dag)
        .threads(ENGINE_THREADS)
        .results_cache(true)
        .build()?;
    for key in keys {
        engine.run(key.task, key.cfg())?;
    }
    let counters = || engine.results_cache_counters().unwrap_or((0, 0));
    let (hits_before, misses_before) = counters();
    let queue = AdmissionQueue::new(64);
    let mut reader = FrameReader::new();
    let mut rungs = tracer.sibling();
    let started = Instant::now();
    let mut cycle = 0u32;
    while cycle < MIN_LADDER_CYCLES || started.elapsed() < window {
        for (k, key) in keys.iter().enumerate() {
            let tag = Tag::of_key(key.corpus, k, cycle * keys.len() as u32 + k as u32);
            let span = rungs.begin("ladder", tag);
            let bytes = ladder_step(
                key,
                oracle[k],
                &engine,
                &queue,
                &mut reader,
                tag,
                &mut rungs,
            );
            rungs.end(span);
            let name = format!("server.protocol.{}.response_bytes", key.task_label());
            layers.insert(name, bytes? as f64);
        }
        cycle += 1;
    }
    let (hits, misses) = counters();
    let (hits, misses) = (hits - hits_before, misses - misses_before);
    layers.insert(
        "tadoc.engine.cache_hit_rate".into(),
        hits as f64 / (hits + misses) as f64,
    );
    let spans = Layers::new(rungs.spans());
    let mut sums_ms = Vec::new();
    for (span, metric, per_ms) in LADDER {
        let per_cycle = spans
            .self_ms(span, |_| true)
            .into_iter()
            .map(|(tag, ms)| (cycle_of(&tag, keys.len()), ms));
        let sum = median_cycle_sum(per_cycle)
            .ok_or_else(|| BenchError::Check(format!("the ladder recorded no {span} span")))?;
        layers.insert(metric.to_string(), sum * per_ms);
        sums_ms.push(sum);
    }
    drop(spans);
    tracer.absorb(rungs);
    Ok(sums_ms)
}

/// Connections, warm-up, windows, and (traced) the stats round trips.
/// Returns `None` when this set-up repetition is not the last.
fn drive(
    ctx: &Ctx,
    keys: &[Key],
    oracle: &[u64],
    addr: std::net::SocketAddr,
    t0: Instant,
    setup_s: &mut Vec<f64>,
    tracer: &mut Tracer,
) -> Result<Option<(Windows, Option<f64>)>, BenchError> {
    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS {
        clients.push(Client::connect(addr)?);
    }
    // Warm-up round: the first ask of a key executes it and fills the
    // results cache; everything after is a hit.
    let mut untraced = Tracer::new(t0, false);
    for client in &mut clients {
        for (k, key) in keys.iter().enumerate() {
            let tag = Tag::of_key(key.corpus, k, 0);
            hot_query(key, client, oracle[k], tag, &mut untraced)?;
        }
    }
    setup_s.push(t0.elapsed().as_secs_f64());
    if setup_s.len() < SETUP_REPS {
        return Ok(None);
    }
    let key_corpus: Vec<usize> = keys.iter().map(|k| k.corpus).collect();
    let windows = measure(
        ctx,
        &key_corpus,
        &mut clients,
        tracer,
        |client, k, tag, tracer| hot_query(&keys[k], client, oracle[k], tag, tracer),
    );
    let mut stats_rtt_us = None;
    if ctx.trace {
        let mut rtts = Vec::with_capacity(STATS_ROUND_TRIPS);
        for _ in 0..STATS_ROUND_TRIPS {
            let t = Instant::now();
            clients[0].stats()?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        stats_rtt_us = median(&rtts);
    }
    Ok(Some((windows, stats_rtt_us)))
}

fn set_up_and_measure(
    ctx: &Ctx,
    keys: &[Key],
    setup_s: &mut Vec<f64>,
    tracer: &mut Tracer,
) -> Result<Option<Outcome>, BenchError> {
    let rep = setup_s.len() as u32;
    let t0 = Instant::now();
    let corpus = Corpus::prepare(0, ctx.seed, rep, tracer);
    let dag = corpus.dag(rep, tracer);
    let corpora = std::slice::from_ref(&corpus);
    let oracle = oracle_digests(keys, corpora, std::slice::from_ref(&dag), rep, tracer);
    let server = Server::bind(
        ("127.0.0.1", 0),
        ServerConfig {
            handler_threads: CONNECTIONS,
            executor_threads: 1,
            engine_threads: ENGINE_THREADS,
            results_cache: true,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.local_addr();
    let handle = server.handle();
    let (driven, served) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&corpus.archive, &dag));
        let driven = drive(ctx, keys, &oracle, addr, t0, setup_s, tracer);
        // Connections are closed by now (drive dropped them), so the
        // handlers return and the server drains at once.
        handle.shutdown();
        (driven, serving.join())
    });
    let stats: StatsSnapshot = match served {
        Ok(stats) => stats?,
        Err(_) => return Err(BenchError::Check("the server thread panicked".into())),
    };
    let Some((windows, stats_rtt_us)) = driven? else {
        return Ok(None);
    };

    let facts = vec![CorpusFacts::of(&corpus)];
    let mut layers = BTreeMap::new();
    if let Some(traced) = &windows.traced {
        let mut observed_cycle_ms = 0.0;
        {
            let spans = Layers::new(tracer.spans());
            layers = common_layer_metrics(&spans, keys, &facts, &windows.untraced, traced);
            for (k, key) in keys.iter().enumerate() {
                let p50 = median(&spans.duration_ms("op", |t| t.key as usize == k))
                    .ok_or_else(|| BenchError::Check(format!("{}: no traced op", key.label())))?;
                layers.insert(format!("server.client.{}.p50_ms", key.task_label()), p50);
                observed_cycle_ms += p50;
            }
        }
        layers.extend(stats_rtt_us.map(|v| ("server.server.stats_rtt_us".to_string(), v)));
        let answered = stats.queries_answered as f64;
        layers.insert(
            "server.server.batches_per_op".into(),
            stats.batches as f64 / answered,
        );
        layers.insert(
            "server.server.batched_share".into(),
            stats.batched_queries as f64 / answered,
        );
        layers.insert(
            "server.server.max_queue_depth".into(),
            stats.max_queue_depth as f64,
        );
        layers.insert("server.server.shed".into(), stats.shed as f64);
        layers.insert(
            "server.server.protocol_errors".into(),
            stats.protocol_errors as f64,
        );
        let rest = 1.0 - TRACED_RUN_SPLIT.0 - TRACED_RUN_SPLIT.1;
        let window = ctx.window.mul_f64(rest);
        let ladder_ms = ladder(window, keys, &oracle, &corpus, &dag, tracer, &mut layers)?;
        layers.insert(
            "server.server.unattributed_ms".into(),
            unattributed_ms(observed_cycle_ms, &ladder_ms),
        );
    }
    Ok(Some(Outcome {
        key_labels: keys.iter().map(Key::label).collect(),
        callers: CONNECTIONS,
        setup_s: setup_s.clone(),
        windows,
        corpora: facts,
        layers,
    }))
}

/// Runs the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, BenchError> {
    let keys = hot_keys();
    let mut setup_s = Vec::new();
    loop {
        if let Some(outcome) = set_up_and_measure(ctx, &keys, &mut setup_s, tracer)? {
            return Ok(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_sum_plus_unattributed_is_the_observed_latency() {
        let ladder_ms = [0.004, 0.002, 0.001, 12.5, 9.25, 3.0, 7.75, 2.5];
        let observed = 61.0;
        let rest = unattributed_ms(observed, &ladder_ms);
        assert!((ladder_ms.iter().sum::<f64>() + rest - observed).abs() < 1e-12);
        // A socket run faster than the ladder is reported as it is, not clamped.
        assert!(unattributed_ms(1.0, &ladder_ms) < 0.0);
    }

    #[test]
    fn every_ladder_rung_has_a_per_layer_metric() {
        let names: Vec<String> = crate::metrics::per_layer()
            .into_iter()
            .map(|d| d.name)
            .collect();
        for (_, metric, _) in LADDER {
            assert!(names.iter().any(|n| n == metric), "{metric}");
        }
    }
}
