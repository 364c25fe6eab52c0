//! What the four workloads share: corpora, keys, the oracle, the closed
//! loop, and the per-layer numbers every workload derives from its spans.

pub mod ingest;
pub mod oneshot;
pub mod serve_hot;
pub mod session;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use datagen::{DatasetId, DatasetPreset, SplitMix64};
use sequitur::compress::{compress_corpus, compress_token_files, CompressOptions};
use sequitur::dictionary::Dictionary;
use sequitur::tokenizer::tokenize_into;
use sequitur::{Dag, TadocArchive};
use tadoc::fine_grained::EngineError;
use tadoc::{Task, TaskConfig};

use crate::stats::{geomean, median, p90_with_ten_beyond, MIN_TAIL_SAMPLES};
use crate::trace::{Layers, Tag, Tracer};

/// The two corpora, by the property that makes them behave differently.
/// `manyfiles` is dataset A (per-rule file information, `FileCsr` and file
/// weights dominate); `fewfiles` is dataset B (large vocabulary, sequence
/// tasks and finalize dominate).
pub const CORPORA: [&str; 2] = ["manyfiles", "fewfiles"];

/// Dataset scale of both corpora, the same for all four workloads.  Chosen
/// so the slowest op (an `ingest` round) still yields
/// [`MIN_TAIL_SAMPLES`] ops inside the measured window on the reference
/// box; change it for all workloads together or not at all.
pub const SCALE: f64 = 2.0;

/// Worker threads of every engine the benchmark builds (the reference box
/// has 2 cores).
pub const ENGINE_THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Why a run (or one op of it) failed.
#[derive(Debug)]
pub enum BenchError {
    /// Bad command line.
    Usage(String),
    /// Archive bytes did not decode.
    Archive(sequitur::Error),
    /// The engine refused to build or a query returned a typed error.
    Engine(EngineError),
    /// The loopback server failed to start or crashed.
    Server(server::ServerError),
    /// Transport or protocol failure on a client connection.
    Client(server::ClientError),
    /// The codec refused bytes it produced itself.
    Protocol(server::ProtocolError),
    /// File or socket I/O outside the client library.
    Io(std::io::Error),
    /// An answer, a round trip or an invariant of the benchmark was wrong.
    Check(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Usage(m) => write!(f, "usage: {m}"),
            BenchError::Archive(e) => write!(f, "archive: {e}"),
            BenchError::Engine(e) => write!(f, "engine: {e}"),
            BenchError::Server(e) => write!(f, "server: {e}"),
            BenchError::Client(e) => write!(f, "client: {e}"),
            BenchError::Protocol(e) => write!(f, "protocol: {e}"),
            BenchError::Io(e) => write!(f, "i/o: {e}"),
            BenchError::Check(m) => write!(f, "check failed: {m}"),
        }
    }
}

impl std::error::Error for BenchError {}

macro_rules! from_error {
    ($($variant:ident <- $ty:ty),*) => {$(
        impl From<$ty> for BenchError {
            fn from(e: $ty) -> Self {
                BenchError::$variant(e)
            }
        }
    )*};
}
from_error!(
    Archive <- sequitur::Error,
    Engine <- EngineError,
    Server <- server::ServerError,
    Client <- server::ClientError,
    Protocol <- server::ProtocolError,
    Io <- std::io::Error
);

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Corpus-generation seed; drives nothing else.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// One query identity: a task at a sequence length on one corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    /// Index into [`CORPORA`].
    pub corpus: usize,
    /// The task.
    pub task: Task,
    /// Sequence length `l`.
    pub l: usize,
}

impl Key {
    /// The engine's per-query configuration.
    pub fn cfg(&self) -> TaskConfig {
        TaskConfig {
            sequence_length: self.l,
        }
    }

    /// `<task>`, or `<task>-l<l>` away from the default `l = 3`.
    pub fn task_label(&self) -> String {
        match self.l {
            3 => self.task.name().to_string(),
            l => format!("{}-l{l}", self.task.name()),
        }
    }

    /// `<corpus>.<task label>`.
    pub fn label(&self) -> String {
        format!("{}.{}", CORPORA[self.corpus], self.task_label())
    }
}

/// One generated corpus, compressed, with everything the workloads read.
pub struct Corpus {
    /// Index into [`CORPORA`].
    pub id: usize,
    /// The generated input: `(file name, text)`.
    pub files: Vec<(String, String)>,
    /// Input tokens.
    pub tokens: u64,
    /// The compressed archive.
    pub archive: TadocArchive,
    /// `archive.to_bytes()`.
    pub bytes: Vec<u8>,
}

/// Compresses text files exactly as `sequitur::compress_corpus` does.  The
/// traced run spells the function's two stages out so the tokenizer and the
/// grammar inference get a span each; a unit test keeps the two spellings
/// byte-identical.
pub fn compress_text(files: &[(String, String)], tracer: &mut Tracer, tag: Tag) -> TadocArchive {
    let opts = CompressOptions::default();
    if !tracer.is_on() {
        return compress_corpus(files, opts);
    }
    let mut dict = Dictionary::new();
    let token_files = tracer.time("sequitur.tokenizer", tag, || {
        files
            .iter()
            .map(|(_, text)| tokenize_into(text, &mut dict, opts.tokenizer))
            .collect::<Vec<_>>()
    });
    let names = files.iter().map(|(name, _)| name.clone()).collect();
    let sizes = files.iter().map(|(_, text)| text.len() as u64).collect();
    tracer.time("sequitur.compress", tag, || {
        compress_token_files(dict, token_files, names, sizes)
    })
}

impl Corpus {
    /// Generates corpus `id` from `seed`, renders it to text (the program
    /// under test only ever sees these files), compresses and encodes it.
    pub fn prepare(id: usize, seed: u64, rep: u32, tracer: &mut Tracer) -> Corpus {
        let mut preset = DatasetPreset::new([DatasetId::A, DatasetId::B][id]);
        preset.config.seed = seed;
        let generated = preset.generate_scaled(SCALE);
        let files: Vec<(String, String)> = generated
            .file_names
            .iter()
            .zip(&generated.files)
            .map(|(name, words)| {
                let text: Vec<&str> = words
                    .iter()
                    .map(|&w| generated.dictionary.word(w))
                    .collect();
                (name.clone(), text.join(" "))
            })
            .collect();
        let tag = Tag::of_corpus(id, rep);
        let archive = compress_text(&files, tracer, tag);
        let bytes = tracer.time("sequitur.archive.encode", tag, || archive.to_bytes());
        Corpus {
            id,
            files,
            tokens: generated.total_tokens() as u64,
            archive,
            bytes,
        }
    }

    /// Builds the rule DAG (a span of its own: `oneshot` pays it per op).
    pub fn dag(&self, rep: u32, tracer: &mut Tracer) -> Dag {
        let tag = Tag::of_corpus(self.id, rep);
        tracer.time("sequitur.dag.build", tag, || {
            Dag::from_grammar(&self.archive.grammar)
        })
    }
}

/// Sequential-oracle digest of every key, computed in set-up.  The oracle
/// is the TADOC baseline (`tadoc::run_task`); its span per key is what
/// `tadoc.sequential.<c>.geomean_ms` is derived from.
pub fn oracle_digests(
    keys: &[Key],
    corpora: &[Corpus],
    dags: &[Dag],
    rep: u32,
    tracer: &mut Tracer,
) -> Vec<u64> {
    keys.iter()
        .enumerate()
        .map(|(k, key)| {
            let tag = Tag::of_key(key.corpus, k, rep);
            let slot = corpora
                .iter()
                .position(|c| c.id == key.corpus)
                .expect("every key's corpus is prepared");
            let exec = tracer.time("tadoc.sequential", tag, || {
                tadoc::run_task(&corpora[slot].archive, &dags[slot], key.task, key.cfg())
            });
            exec.output.digest()
        })
        .collect()
}

/// Compares an answer's digest with the oracle's.
pub fn check_digest(key: &Key, got: u64, want: u64) -> Result<(), BenchError> {
    if got == want {
        Ok(())
    } else {
        Err(BenchError::Check(format!(
            "{}: digest {got:#018x} differs from the sequential oracle's {want:#018x}",
            key.label()
        )))
    }
}

/// Latencies and failures of one measured window.
#[derive(Debug, Default)]
pub struct Samples {
    /// Latency of every correct op, in milliseconds, by key.
    pub per_key_ms: Vec<Vec<f64>>,
    /// Ops started.
    pub attempted: u64,
    /// Ops that errored, were shed or refused, or failed their check.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
    /// Wall-clock length of the window, first op start to last op end.
    pub window_s: f64,
}

impl Samples {
    fn new(keys: usize) -> Self {
        Self {
            per_key_ms: vec![Vec::new(); keys],
            ..Self::default()
        }
    }

    fn merge(&mut self, other: Samples) {
        for (mine, theirs) in self.per_key_ms.iter_mut().zip(other.per_key_ms) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_error = self.first_error.take().or(other.first_error);
        self.window_s = self.window_s.max(other.window_s);
    }

    /// Correct ops per second of the window.
    pub fn throughput_ops_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.window_s
    }

    /// Median latency of each key.
    pub fn key_p50_ms(&self) -> Vec<Option<f64>> {
        self.per_key_ms.iter().map(|v| median(v)).collect()
    }

    /// Geometric mean over the keys of the per-key median, so each key
    /// weighs equally, as the paper's average speedup does.
    pub fn key_p50_geomean_ms(&self) -> Option<f64> {
        let medians: Option<Vec<f64>> = self.key_p50_ms().into_iter().collect();
        geomean(&medians?)
    }

    /// 90th percentile over all ops of the window.
    pub fn op_p90_ms(&self) -> Option<f64> {
        let all: Vec<f64> = self.per_key_ms.iter().flatten().copied().collect();
        p90_with_ten_beyond(&all)
    }
}

/// Op ids of caller `c` start at `c * CALLER_OP_STRIDE * keys`, a multiple
/// of the key count, so `op / keys` names one caller's round (see
/// [`cycle_of`]).
const CALLER_OP_STRIDE: usize = 1_000_000;

/// The round of its caller that an op belongs to; unique across callers.
pub fn cycle_of(tag: &Tag, n_keys: usize) -> u32 {
    tag.op / n_keys as u32
}

/// What `Engine::run` reported about one op, kept by the traced run.
/// `traversal_ms` excludes `finalize_ms` (the engine reports finalize as a
/// portion of traversal), so the three phases are disjoint.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// The op.
    pub tag: Tag,
    /// `PhaseTimings::init`.
    pub init_ms: f64,
    /// `PhaseTimings::shared_init`: analysis-layer fills paid by this op.
    pub shared_init_ms: f64,
    /// `PhaseTimings::traversal` minus `PhaseTimings::finalize`.
    pub traversal_ms: f64,
    /// `PhaseTimings::finalize`.
    pub finalize_ms: f64,
    /// Whether the engine served the op through its sequential fallback.
    pub degraded: bool,
}

impl Phases {
    /// Reads the phases off an execution's timings.
    pub fn of(tag: Tag, t: &tadoc::PhaseTimings) -> Self {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        Self {
            tag,
            init_ms: ms(t.init),
            shared_init_ms: ms(t.shared_init),
            traversal_ms: ms(t.traversal.saturating_sub(t.finalize)),
            finalize_ms: ms(t.finalize),
            degraded: t.degraded.is_some(),
        }
    }
}

/// Median over the rounds of the sum, over one corpus's six tasks, of one
/// phase.
pub fn six_task_sum(
    phases: &[Phases],
    corpus: usize,
    n_keys: usize,
    pick: impl Fn(&Phases) -> f64,
) -> Option<f64> {
    median_cycle_sum(
        phases
            .iter()
            .filter(|p| p.tag.corpus as usize == corpus)
            .map(|p| (cycle_of(&p.tag, n_keys), pick(p))),
    )
}

/// Runs a closed loop: each caller sends its next op only after the
/// previous one completed.  Callers go through `keys` in whole rounds (so
/// every key gets the same number of samples from a caller), each round in
/// a fresh order drawn from the caller's own fixed random stream — callers
/// that cycle in a fixed order lock into one phase for a whole run, and
/// which keys then overlap differs from run to run — until `window` has
/// passed and the callers together have at least `min_ops` ops.  `keys`
/// holds each key's corpus index.  `op` gets the caller's own state, the key
/// index, the op's tag and the caller's tracer.
pub fn closed_loop<S: Send>(
    window: Duration,
    min_ops: usize,
    keys: &[usize],
    callers: &mut [S],
    tracer: &mut Tracer,
    op: impl Fn(&mut S, usize, Tag, &mut Tracer) -> Result<(), BenchError> + Sync,
) -> Samples {
    let n_callers = callers.len();
    let min_ops = min_ops.div_ceil(n_callers);
    let started = Instant::now();
    let op = &op;
    let per_caller: Vec<(Samples, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .enumerate()
            .map(|(c, state)| {
                let mut tracer = tracer.sibling();
                scope.spawn(move || {
                    let mut samples = Samples::new(keys.len());
                    let mut order: Vec<usize> = (0..keys.len()).collect();
                    let mut rng = SplitMix64::new(c as u64);
                    let mut ops = 0u32;
                    while started.elapsed() < window || (ops as usize) < min_ops {
                        // Fisher-Yates with a fixed per-caller stream.
                        for i in (1..order.len()).rev() {
                            order.swap(i, rng.next_below(i as u64 + 1) as usize);
                        }
                        for &k in &order {
                            let first_op = (c * CALLER_OP_STRIDE * keys.len()) as u32;
                            let tag = Tag::of_key(keys[k], k, first_op + ops);
                            ops += 1;
                            samples.attempted += 1;
                            let t0 = Instant::now();
                            let span = tracer.begin("op", tag);
                            let outcome = op(state, k, tag, &mut tracer);
                            tracer.end(span);
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            match outcome {
                                Ok(()) => samples.per_key_ms[k].push(ms),
                                Err(e) => {
                                    samples.failed += 1;
                                    samples.first_error.get_or_insert_with(|| e.to_string());
                                }
                            }
                        }
                    }
                    samples.window_s = started.elapsed().as_secs_f64();
                    (samples, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(done) => done,
                // A caller that panicked measured nothing: one failed op
                // makes the run incorrect and the exit code non-zero.
                Err(_) => {
                    let mut lost = Samples::new(keys.len());
                    lost.attempted = 1;
                    lost.failed = 1;
                    lost.first_error = Some("a caller thread panicked".to_string());
                    lost.window_s = started.elapsed().as_secs_f64();
                    (lost, Tracer::new(started, false))
                }
            })
            .collect()
    });
    let mut total = Samples::new(keys.len());
    for (samples, caller_tracer) in per_caller {
        total.merge(samples);
        tracer.absorb(caller_tracer);
    }
    total
}

/// Facts about one prepared corpus that the report needs after the corpus
/// itself is gone.
#[derive(Debug, Clone, Copy)]
pub struct CorpusFacts {
    /// Index into [`CORPORA`].
    pub id: usize,
    /// Input files.
    pub files: usize,
    /// Input tokens.
    pub tokens: u64,
    /// Grammar rules.
    pub rules: usize,
    /// Grammar elements (symbols over all rule bodies).
    pub elements: usize,
    /// Encoded archive size.
    pub bytes: usize,
}

impl CorpusFacts {
    /// Reads the facts off a prepared corpus.
    pub fn of(c: &Corpus) -> Self {
        Self {
            id: c.id,
            files: c.files.len(),
            tokens: c.tokens,
            rules: c.archive.grammar.num_rules(),
            elements: c.archive.grammar.total_elements(),
            bytes: c.bytes.len(),
        }
    }
}

/// Everything one workload run hands back to `main`.
pub struct Outcome {
    /// Name of each key, in key order.
    pub key_labels: Vec<String>,
    /// Closed-loop callers (threads or connections).
    pub callers: usize,
    /// Duration of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// The measured windows.
    pub windows: Windows,
    /// The corpora the workload ran over.
    pub corpora: Vec<CorpusFacts>,
    /// Per-layer metrics by name (traced run only).
    pub layers: BTreeMap<String, f64>,
}

/// The windows of one run.
pub struct Windows {
    /// The untraced window: the whole run without `--trace`, its first part
    /// with it.
    pub untraced: Samples,
    /// The traced window, with `--trace`.
    pub traced: Option<Samples>,
}

/// Share of the window a traced run spends untraced (to measure tracing
/// overhead against) and traced; the rest is left for workload extras such
/// as the `serve_hot` ladder.
pub const TRACED_RUN_SPLIT: (f64, f64) = (0.3, 0.5);

/// Runs the untraced window and, in a traced run, the traced one after it.
/// Only the untraced run reports a tail percentile, so only it is held to
/// [`MIN_TAIL_SAMPLES`] ops however slow the box.
pub fn measure<S: Send>(
    ctx: &Ctx,
    keys: &[usize],
    callers: &mut [S],
    tracer: &mut Tracer,
    op: impl Fn(&mut S, usize, Tag, &mut Tracer) -> Result<(), BenchError> + Sync,
) -> Windows {
    if !ctx.trace {
        return Windows {
            untraced: closed_loop(ctx.window, MIN_TAIL_SAMPLES, keys, callers, tracer, &op),
            traced: None,
        };
    }
    tracer.set_on(false);
    let untraced = closed_loop(
        ctx.window.mul_f64(TRACED_RUN_SPLIT.0),
        1,
        keys,
        callers,
        tracer,
        &op,
    );
    tracer.set_on(true);
    let traced = closed_loop(
        ctx.window.mul_f64(TRACED_RUN_SPLIT.1),
        1,
        keys,
        callers,
        tracer,
        &op,
    );
    Windows {
        untraced,
        traced: Some(traced),
    }
}

/// Median of the self times of `name`'s spans that pass `keep`.
pub fn median_self_ms(layers: &Layers<'_>, name: &str, keep: impl Fn(&Tag) -> bool) -> Option<f64> {
    let values: Vec<f64> = layers
        .self_ms(name, keep)
        .into_iter()
        .map(|(_, ms)| ms)
        .collect();
    median(&values)
}

/// Sums `values` by cycle, then takes the median over the cycles.  `values`
/// pairs a cycle id with a value.
pub fn median_cycle_sum(values: impl IntoIterator<Item = (u32, f64)>) -> Option<f64> {
    let mut cycles: BTreeMap<u32, f64> = BTreeMap::new();
    for (cycle, v) in values {
        *cycles.entry(cycle).or_insert(0.0) += v;
    }
    median(&cycles.into_values().collect::<Vec<_>>())
}

/// The per-layer numbers that come from spans any workload may record —
/// the write path in set-up, the oracle, and the cold-path calls — plus the
/// grammar counts and the tracing overhead.  Workload-specific numbers are
/// added by the workload.
pub fn common_layer_metrics(
    layers: &Layers<'_>,
    keys: &[Key],
    corpora: &[CorpusFacts],
    untraced: &Samples,
    traced: &Samples,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for facts in corpora {
        let c = CORPORA[facts.id];
        let of_corpus = |t: &Tag| t.corpus as usize == facts.id;
        let per_token = |ms: f64| ms * 1e6 / facts.tokens as f64;
        let mut put = |name: String, value: Option<f64>| {
            if let Some(v) = value {
                out.insert(name, v);
            }
        };
        put(
            format!("sequitur.tokenizer.{c}.ns_per_token"),
            median_self_ms(layers, "sequitur.tokenizer", of_corpus).map(per_token),
        );
        put(
            format!("sequitur.compress.{c}.ns_per_token"),
            median_self_ms(layers, "sequitur.compress", of_corpus).map(per_token),
        );
        put(
            format!("sequitur.compress.{c}.rules"),
            Some(facts.rules as f64),
        );
        put(
            format!("sequitur.compress.{c}.elements_per_token"),
            Some(facts.elements as f64 / facts.tokens as f64),
        );
        put(
            format!("sequitur.archive.{c}.bytes"),
            Some(facts.bytes as f64),
        );
        for (metric, span) in [
            ("sequitur.archive.{c}.encode_ms", "sequitur.archive.encode"),
            ("sequitur.archive.{c}.decode_ms", "sequitur.archive.decode"),
            ("sequitur.dag.{c}.build_ms", "sequitur.dag.build"),
            ("tadoc.engine.{c}.build_ms", "tadoc.engine.build"),
        ] {
            put(
                metric.replace("{c}", c),
                median_self_ms(layers, span, of_corpus),
            );
        }
        // The TADOC baseline: geometric mean over the six tasks at l = 3.
        let sequential: Option<Vec<f64>> = keys
            .iter()
            .enumerate()
            .filter(|(_, key)| key.corpus == facts.id && key.l == 3)
            .map(|(k, _)| median_self_ms(layers, "tadoc.sequential", |t| t.key as usize == k))
            .collect();
        put(
            format!("tadoc.sequential.{c}.geomean_ms"),
            sequential.and_then(|v| geomean(&v)),
        );
    }
    out.insert(
        "trace.overhead_share".to_string(),
        traced.throughput_ops_s() / untraced.throughput_ops_s(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_and_untraced_compression_are_byte_identical() {
        let files = vec![
            (
                "a.txt".to_string(),
                "to be or not to be that is the question".to_string(),
            ),
            (
                "b.txt".to_string(),
                "to be or not to be to be sure".to_string(),
            ),
            ("empty.txt".to_string(), String::new()),
        ];
        let tag = Tag::of_corpus(0, 0);
        let origin = Instant::now();
        let plain = compress_text(&files, &mut Tracer::new(origin, false), tag);
        let mut tracer = Tracer::new(origin, true);
        let spelled_out = compress_text(&files, &mut tracer, tag);
        assert_eq!(plain.to_bytes(), spelled_out.to_bytes());
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["sequitur.tokenizer", "sequitur.compress"]);
    }

    #[test]
    fn closed_loop_gives_every_key_whole_rounds_and_counts_failures() {
        let keys = [0; 6];
        let mut callers = [(), ()];
        let mut tracer = Tracer::new(Instant::now(), true);
        let samples = closed_loop(
            Duration::ZERO,
            MIN_TAIL_SAMPLES,
            &keys,
            &mut callers,
            &mut tracer,
            |_, k, _, _| match k {
                5 => Err(BenchError::Check("always wrong".into())),
                _ => Ok(()),
            },
        );
        // 2 callers x ceil(50 / 6) rounds x 6 keys.
        assert_eq!(samples.attempted, 2 * 9 * 6);
        assert_eq!(samples.failed, 2 * 9);
        assert!(samples.per_key_ms[..5].iter().all(|v| v.len() == 18));
        assert!(samples.per_key_ms[5].is_empty());
        assert_eq!(
            samples.first_error.as_deref(),
            Some("check failed: always wrong")
        );
        assert_eq!(tracer.spans().len() as u64, samples.attempted);
        assert_eq!(
            samples.key_p50_geomean_ms(),
            None,
            "a key without samples has no median"
        );
    }

    #[test]
    fn cycle_sums_are_taken_per_cycle_before_the_median() {
        let values = [
            (0, 1.0),
            (0, 2.0),
            (1, 10.0),
            (1, 20.0),
            (2, 100.0),
            (2, 200.0),
        ];
        assert_eq!(median_cycle_sum(values), Some(30.0));
        assert_eq!(median_cycle_sum([]), None);
    }
}
