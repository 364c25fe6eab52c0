//! Fine-grained parallel CPU execution engine.
//!
//! This module brings the G-TADOC scheduling (so far only realised on the
//! `gpu-sim` backend) onto real CPU threads — the design the paper argues
//! for over coarse file-partition parallelism:
//!
//! 1. **Level-synchronized DAG traversal on a persistent worker pool.**
//!    Rules are grouped by dependency depth ([`head_tail::levels_top_down`],
//!    walked in reverse for bottom-up passes); all rules of one level are
//!    processed in parallel across one long-lived [`exec::WorkerPool`]
//!    (parked threads, created once per [`Engine`] session), and the pool's
//!    generation-counted epoch barrier between levels plays the role of the
//!    GPU's mask/stop-flag round barrier (Algorithm 1 top-down for rule
//!    weights, Algorithm 2 bottom-up for head/tail assembly —
//!    `rule.numOutEdge` ordering falls out of the layer grouping, since every
//!    child sits in a strictly deeper layer than all of its parents).  The
//!    head/tail records of one level are written into that level's own
//!    region of one flat buffer, read from the finished regions below it,
//!    so the passes need no `unsafe`.  Small DAG levels run inline on the
//!    caller instead of waking the pool.
//! 2. **Private per-worker accumulators** (Figure 5's lock-free local
//!    tables, in CPU-appropriate form).  Every worker owns its accumulation
//!    state outright, allocated per query (or per window fill) — a plain
//!    list of scanned windows for the window fill, dense counts with
//!    touched-key tracking for term vector's `counts[word]` (word ids are
//!    already a perfect hash of the vocabulary), its seed lists'
//!    `counts[rule]` and the ranked index's `counts[file]`, a file bitmap
//!    with touched-block tracking for the inverted index — the CPU twin of
//!    the paper's observation that a table owned by one thread needs no
//!    locks.  (The paper's flat open-addressing tables and memory pool
//!    live with the simulated GPU engine in `gtadoc`, where dynamic
//!    allocation per thread is not an option; this engine probes no hash
//!    table and pools no memory.)
//! 3. **One counting sort by leading word instead of a locked global table.**
//!    Instead of the global table's bucket locks (Figure 5's `lock`/`entries`
//!    buffers), both window-table fills group their entries by leading word
//!    with one counting sort (`word_starts`: count the entries per word,
//!    prefix-sum the counts, scatter every entry to its word's cursor).
//!    At `l` = 1 the scatter writes each word's sources directly
//!    (`word_table`).  At `l` ≥ 2 (`fill_window_table`, item 6) the grouped
//!    windows are cut at word boundaries into one range of ≈ 1/threads of
//!    them per worker, which sorts each leading word's group on its own and
//!    counts its windows and pairs; then the table's columns are allocated
//!    once, cut at those counts, and each worker folds its range into its
//!    own slices — with no synchronization at all: contention is resolved
//!    statically, and word order is key order.  Each fill runs once per `l`
//!    per session, so no warm query sorts anything: every task is one pass
//!    over contiguous window ranges of a cached table (`over_key_ranges`),
//!    whose parts, in the answer's own layout, `merge::assemble` lays end
//!    to end into the ordered result columns.  A window table and every
//!    posting answer keep their rows in one [`sequitur::Csr`] behind `u32`
//!    offsets, beside their key arena; `exec::split` cuts those offsets in
//!    place, as it cuts the fills' `usize` word starts.
//!    The limit: one leading word is never split, so a word that starts
//!    more than 1/threads of all windows is sorted by one worker — the
//!    answer is unchanged, that fill slower.
//! 4. **Chunk-granular work decomposition.**  Work items are *chunks* of an
//!    item's index space ([`exec::chunk_ranges`]), not whole rules or files:
//!    an oversized rule body (dataset B's root holds most of the corpus)
//!    or root segment is split at
//!    [`EngineBuilder::chunk_elements`] and every chunk is weighted
//!    individually into [`exec::split`] or claimed off the atomic cursor
//!    of `driver::claim_loop` (the one claim loop, with the one per-claim
//!    cancel/deadline checkpoint) — the CPU analogue
//!    of the paper's thread groups for oversized rules (Section IV-B),
//!    applied to every app path.  The phase clock around it
//!    (`driver::run_phases`) records wall-clock only: the fine engine
//!    leaves [`PhaseTimings::init_work`](crate::timing::PhaseTimings::init_work)
//!    / `traversal_work` at their `Default`; the sequential reference
//!    counts abstract work for the cost model.
//! 5. **One rule × file occurrence matrix, filled per file.**  A per-file
//!    top-down propagation fills the file-major matrix (file → `(rule,
//!    occurrences)`, a [`sequitur::Csr`]) once; the rule-major view the
//!    inverted index and the ranked index read (rule → `(file,
//!    occurrences)`) is its counting-sort transpose.  Term vector reads the
//!    file-major rows: files are statically partitioned across workers by
//!    cost and each worker walks only *its own files'* rules, accumulating
//!    one file at a time into its own dense counts with touched-word
//!    tracking.  File ownership is disjoint, so there is nothing to merge —
//!    the same static split as the window fill's word ranges.
//! 6. **Rule-local sequence support** (Figures 6–8).  Sequence tasks build
//!    per-rule head/tail records bottom-up and count every window **once per
//!    rule**; rule bodies and the root are split into chunks the way the
//!    paper's thread groups split oversized rules (Section IV-B), with
//!    chunk-boundary windows completed by an O(`l`) word-bounded extension
//!    ([`sequences::count_range_windows`]).  The local counts depend only on
//!    the archive and `l`, so they are an analysis artifact like
//!    `dag.local_words`: one fill per `l` per session groups them with the
//!    counting sort of item 3 into a window → (source, local count) table
//!    (`WindowTable`, a width-`l` [`PostingTable`]; a source is a rule, or one
//!    file's root segment).  The scan keeps one entry per window beside its
//!    leading word: its other words and its source packed into one `u64` at
//!    the archive's own widths, or owned when they need more than 64 bits
//!    (`sequences::EntryLayout`).  A query is one pass over that table,
//!    scaling by rule weight (sequence count) or scattering by per-file rule
//!    weight into dense per-file counts (ranked inverted index, so the
//!    window × file cross product is never pushed or sorted).  At `l` = 1 a window is a word, a
//!    rule's local windows are its local word list and a file's root windows
//!    are the words of its segment, so that table is built directly — the same
//!    counting sort keyed by word, with no head/tail records, no scan and no
//!    sort within a word (`word_table`) — and kept apart from the per-`l`
//!    tables, never evicted.  The word tasks read it: `wordCount` / `sort` are
//!    `sequenceCount`'s weighted pass over it, and `invertedIndex` ORs each
//!    word's sources' files into a per-worker file bitmap, drained in file
//!    order.  This is the reuse that lets the engine beat the sequential
//!    baseline even on a single core — the baseline re-streams every
//!    occurrence.
//!
//! The public entry point is the **session API** ([`engine::Engine`]): a
//! long-lived object owning the persistent pool and a lazily-cached
//! analysis layer (DAG levels, rule weights, the rule × file matrix in both
//! orientations, window tables, chunk decompositions) shared by every query
//! over the borrowed archive.
//! [`run_task`](crate::apps::run_task) stays beside it as the sequential
//! reference and the degrade ladder's fallback.
//!
//! Outputs are byte-identical to the sequential oracle for all six tasks
//! (asserted by `tests/cross_implementation.rs`, `tests/engine_session.rs`
//! and the unit tests below).

mod driver;
pub mod engine;
pub mod exec;
pub mod head_tail;
mod merge;
mod results_cache;
pub mod sequences;

pub use engine::{
    CancelToken, ConfigError, Engine, EngineBuilder, EngineError, QueryOptions,
    DEFAULT_CHUNK_ELEMENTS,
};
pub use results_cache::{FrameSlot, FRAME_HEADROOM, RESULTS_CACHE_BUDGET_BYTES};

use crate::apps::{Task, TaskConfig, TaskExecution};
use crate::results::*;
use crate::timing::{PhaseTimings, Timer};
use driver::{claim_loop, run_phases};
use engine::Analysis;
use exec::WorkerPool;
use head_tail::HeadTail;
use merge::Part;
use sequences::{count_range_windows, EntryLayout, WindowEntry};
use sequitur::{Csr, Dag, Grammar, RuleId, Symbol, TadocArchive};
use std::sync::atomic::{AtomicU64, Ordering};

/// Dispatches one fine-grained task over an existing pool and the
/// session's analysis layer — the back end of [`Engine::run`].  Takes only
/// shared references to the session state: all mutation happens through
/// the analysis layer's once-filled cells and state the query allocates
/// itself, which is what lets [`Engine::run`] accept `&self`.
///
/// The caller (the builder and [`Engine::run_with`]) has validated the
/// configuration; `cfg.sequence_length` must be at least 1 for
/// sequence-sensitive tasks.
pub(crate) fn run_fine_with_cache(
    task: Task,
    cfg: TaskConfig,
    analysis: &Analysis<'_>,
    pool: &WorkerPool,
) -> TaskExecution {
    let l = cfg.sequence_length;
    match task {
        Task::WordCount | Task::Sort => count(analysis, task, 1, pool),
        Task::InvertedIndex => inverted_index(analysis, pool),
        Task::TermVector => term_vector_fine(analysis, pool),
        Task::SequenceCount => count(analysis, task, l, pool),
        Task::RankedInvertedIndex => ranked_inverted_index(analysis, l, pool),
    }
}

// ---------------------------------------------------------------------------
// Level-synchronized weight propagation (Algorithm 1 on real threads)
// ---------------------------------------------------------------------------

/// Computes rule weights with a level-synchronized top-down traversal: all
/// rules of one layer propagate `freq × weight` to their children in
/// parallel (atomic adds), with a barrier between layers.  A level of at
/// most [`exec::INLINE_THRESHOLD`] rules runs inline on the caller; a wider
/// one goes through the claim loop.  `levels` must be the top-down level
/// schedule of `dag` ([`head_tail::levels_top_down`]); sessions pass their
/// cached copy.
fn parallel_rule_weights(dag: &Dag, levels: &[Vec<u32>], pool: &WorkerPool) -> Vec<u64> {
    let n = dag.num_rules;
    let weights: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    if n == 0 {
        return Vec::new();
    }
    weights[0].store(1, Ordering::Relaxed);
    let propagate = |r: u32| {
        let w = weights[r as usize].load(Ordering::Relaxed);
        for &(c, freq) in dag.children(r as usize) {
            weights[c as usize].fetch_add(freq as u64 * w, Ordering::Relaxed);
        }
    };
    for level in levels {
        pool.checkpoint(); // cancel/deadline, once per DAG level
        if level.len() <= exec::INLINE_THRESHOLD {
            level.iter().for_each(|&r| propagate(r));
        } else {
            let claim = files_per_claim(level.len(), pool.threads());
            claim_loop(pool, level.len(), claim, || (), |_, i| propagate(level[i]));
        }
    }
    weights.into_iter().map(AtomicU64::into_inner).collect()
}

// ---------------------------------------------------------------------------
// inverted index
// ---------------------------------------------------------------------------

/// `invertedIndex`: one pass over the session's word table, collecting
/// each word's files in a bitmap.
fn inverted_index(a: &Analysis<'_>, pool: &WorkerPool) -> TaskExecution {
    run_phases(
        |charge| {
            let fw = a.ensure_file_weights(pool, charge);
            let num_files = a.ensure_segments(charge).len();
            (fw, num_files, a.ensure_word_table(pool, charge))
        },
        |&(fw, num_files, words)| postings(words, fw, num_files, pool),
        |_, parts| AnalyticsOutput::InvertedIndex(posting_table(1, parts)),
    )
}

// ---------------------------------------------------------------------------
// term vector
// ---------------------------------------------------------------------------

/// The cacheable initialization product of the term-vector task: the
/// file-major rule × file matrix, the running traversal cost of the files,
/// and the size the dense counts are allocated with.  Depends only on the
/// archive, the DAG, and the engine-fixed `chunk_elements` — never on a
/// per-query knob — so a session computes it once.  The cost-balanced
/// per-worker file *ranges* are deliberately **not** cached: they depend on
/// the width of the pool that happens to execute the query (a contended
/// query may run inline on a 1-thread pool), so each query cuts them from
/// `bounds` with [`exec::split`].
pub(crate) struct TermVectorPrep {
    /// Row `f`: the `(rule, occurrences)` of every rule file `f` reaches,
    /// in layer order.
    pub(crate) csr: Csr<(RuleId, u64)>,
    /// The files' running-cost column: file `f` costs `bounds[f + 1] -
    /// bounds[f]` (its root words plus its rules' local words), so there
    /// is one more entry than the answer has files.
    pub(crate) bounds: Vec<usize>,
    pub(crate) vocab: usize,
}

/// A dense accumulator over a small id space: `counts[key]` plus the keys
/// whose count left zero, so collecting and re-zeroing cost the keys
/// touched, not the id space.  Term vector accumulates one file's words in
/// it (word ids are a perfect hash of the vocabulary), the ranked index one
/// window's files.  Every worker allocates its own, per query.
struct DenseCounts {
    counts: Vec<u64>,
    touched: Vec<u32>,
}

impl DenseCounts {
    /// Zero counts over the keys `0..len`.
    fn new(len: usize) -> Self {
        Self {
            counts: vec![0; len],
            touched: Vec::new(),
        }
    }

    #[inline]
    fn add(&mut self, key: u32, amount: u64) {
        let slot = &mut self.counts[key as usize];
        if *slot == 0 {
            self.touched.push(key);
        }
        *slot += amount;
    }

    /// Appends the touched keys' `(key, count)` pairs to `out`, in
    /// `touched` order, and leaves every count zero again.
    fn drain_into(&mut self, out: &mut Vec<(u32, u64)>) {
        out.reserve(self.touched.len());
        for key in self.touched.drain(..) {
            out.push((key, std::mem::take(&mut self.counts[key as usize])));
        }
    }
}

/// A bitmap over the files plus the 64-file blocks set since the last
/// drain, so a drain costs the blocks touched, not the file count.  The
/// inverted index collects one word's files in it; every worker allocates
/// its own, per query.
struct FileBits {
    blocks: Vec<u64>,
    touched: Vec<u32>,
}

impl FileBits {
    #[inline]
    fn set(&mut self, file: FileId) {
        let block = &mut self.blocks[(file / 64) as usize];
        if *block == 0 {
            self.touched.push(file / 64);
        }
        *block |= 1 << (file % 64);
    }

    /// Appends the set files to `out`, ascending, and clears them.
    fn drain_into(&mut self, out: &mut Vec<FileId>) {
        self.touched.sort_unstable();
        for block in self.touched.drain(..) {
            let mut bits = std::mem::take(&mut self.blocks[block as usize]);
            while bits != 0 {
                out.push(block * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

/// Items per claim of a claim loop over files or over the rules of a DAG
/// level: about eight claims per worker, at most 64 items each.  Corpora
/// with fewer files than `threads × 8` must still spread across workers
/// (dataset B has 4 huge files — a fixed claim would hand all of them to
/// one worker).
fn files_per_claim(files: usize, threads: usize) -> usize {
    (files / (threads * 8)).clamp(1, 64)
}

/// Builds [`TermVectorPrep`]: the file-major rule × file matrix, the one
/// fill of that matrix, with a per-file top-down propagation over the
/// file's reachable sub-DAG.  Each worker owns a dense `occ[rule]` scratch
/// plus per-layer buckets, seeds them from the file's root segment,
/// propagates occurrence counts in layer order (every parent sits in a
/// strictly shallower layer, so one pass suffices), and emits the file's
/// `(rule, occurrences)` row.  Scratch cleanup touches only the rules the
/// file reached, so the cost is the size of the file's sub-DAG, not of the
/// whole grammar.
///
/// # Panics
/// Panics if the matrix outgrows its `u32` offset column; a panicking fill
/// publishes nothing, and the query degrades.
pub(crate) fn build_term_vector_prep(
    archive: &TadocArchive,
    dag: &Dag,
    segments: &[(usize, usize)],
    chunk_elements: usize,
    pool: &WorkerPool,
) -> TermVectorPrep {
    let grammar = &archive.grammar;
    let threads = pool.threads();
    let num_files = segments.len();
    let root = grammar.root();
    let n = dag.num_rules;

    // Oversized root segments (a few-huge-files corpus) get their seed scan
    // chunked across the pool first: each worker folds a chunk's direct
    // rule references into its own dense counts over the rules and drains
    // them into the file's seed list, and the per-file propagation below
    // seeds from the lists instead of re-scanning the segment (its `seed`
    // sums a rule that several chunks of one file report).  Small segments
    // skip this entirely — their seed scan stays fused with the
    // propagation.
    let oversized = segments
        .iter()
        .map(|&(s, e)| if e - s > chunk_elements { e - s } else { 0 });
    let seed_chunks = exec::chunk_ranges(oversized, chunk_elements);
    let mut seeds: Vec<Option<Vec<(RuleId, u64)>>> = vec![None; num_files];
    if !seed_chunks.is_empty() {
        let locals = claim_loop(
            pool,
            seed_chunks.len(),
            1,
            || (DenseCounts::new(n), Vec::new()),
            |(counts, lists), ci| {
                let c = seed_chunks[ci];
                let start = segments[c.item as usize].0;
                for sym in &root[start + c.begin as usize..start + c.end as usize] {
                    if let Symbol::Rule(r) = *sym {
                        counts.add(r, 1);
                    }
                }
                let mut list = Vec::new();
                counts.drain_into(&mut list);
                lists.push((c.item, list));
            },
        );
        for (f, list) in locals.into_iter().flat_map(|(_, lists)| lists) {
            seeds[f as usize].get_or_insert_with(Vec::new).extend(list);
        }
    }

    let claim = files_per_claim(num_files, threads);
    /// One worker's propagation state: the dense `occ[rule]` scratch, the
    /// per-layer buckets of rules the current file reached, and the
    /// finished `(file, row)` pairs.
    struct Propagation {
        occ: Vec<u64>,
        buckets: Vec<Vec<u32>>,
        rows: Vec<(usize, Vec<(u32, u64)>)>,
    }
    let locals = claim_loop(
        pool,
        num_files,
        claim,
        || Propagation {
            occ: vec![0u64; n],
            buckets: vec![Vec::new(); dag.num_layers],
            rows: Vec::new(),
        },
        |Propagation { occ, buckets, rows }, f| {
            // Seed: direct rule references in the file's root segment —
            // from the chunk lists for oversized segments,
            // from the segment scan otherwise.
            let mut seed = |c: u32, count: u64| {
                if occ[c as usize] == 0 {
                    buckets[dag.layers[c as usize] as usize].push(c);
                }
                occ[c as usize] += count;
            };
            if let Some(folded) = &seeds[f] {
                for &(c, count) in folded {
                    seed(c, count);
                }
            } else {
                let (start, end) = segments[f];
                for sym in &root[start..end] {
                    if let Symbol::Rule(c) = *sym {
                        seed(c, 1);
                    }
                }
            }
            // Propagate top-down in layer order; children always land
            // in strictly deeper buckets, so indexed iteration is safe.
            let mut row: Vec<(u32, u64)> = Vec::new();
            for layer in 0..buckets.len() {
                for idx in 0..buckets[layer].len() {
                    let r = buckets[layer][idx] as usize;
                    let o = occ[r];
                    row.push((r as u32, o));
                    for &(c, freq) in dag.children(r) {
                        if occ[c as usize] == 0 {
                            buckets[dag.layers[c as usize] as usize].push(c);
                        }
                        occ[c as usize] += freq as u64 * o;
                    }
                }
            }
            // Reset only what this file touched.
            for bucket in buckets.iter_mut() {
                for &r in bucket.iter() {
                    occ[r as usize] = 0;
                }
                bucket.clear();
            }
            rows.push((f, row));
        },
    );
    let mut rows: Vec<Vec<(u32, u64)>> = vec![Vec::new(); num_files];
    for (f, row) in locals.into_iter().flat_map(|p| p.rows) {
        rows[f] = row;
    }
    let csr = Csr::from_rows(rows);
    let mut bounds = vec![0];
    for f in 0..num_files {
        let (start, end) = segments[f];
        let root_words = end - start;
        let local = csr
            .row(f)
            .iter()
            .map(|&(r, _)| dag.local_words(r as usize).len());
        bounds.push(bounds[f] + root_words + local.sum::<usize>());
    }
    let vocab = archive.vocabulary_size();
    TermVectorPrep { csr, bounds, vocab }
}

/// Term vector has nothing to shard — file ownership is disjoint — so it
/// borrows only the phase clock from the driver.
fn term_vector_fine(a: &Analysis<'_>, pool: &WorkerPool) -> TaskExecution {
    let dag = a.dag;
    let threads = pool.threads();
    let root = a.archive.grammar.root();
    run_phases(
        // Initialization — the whole CSR build is a session artifact
        // ([`TermVectorPrep`]): cold runs compute it here, warm runs skip
        // straight to the traversal.
        |charge| {
            let prep = a.ensure_term_vector_prep(pool, charge);
            (prep, a.ensure_segments(charge))
        },
        // Traversal — file-major accumulation.  Each worker owns a
        // contiguous file range (cost-balanced for *this* pool's width — the
        // cached prep stores only the cost column) and walks only those files' CSR
        // entries, accumulating one file at a time into its own
        // [`DenseCounts`] over the vocabulary: word ids are already a
        // perfect hash of the vocabulary, so the accumulate is a direct
        // array add (no probing at all) and the per-file drain touches only
        // the file's own words.
        |&(prep, segments)| {
            pool.map_workers(exec::split(&prep.bounds, threads), |_, files| {
                let mut counts = DenseCounts::new(prep.vocab);
                let mut part = Part::default();
                for f in files {
                    // Cancel/deadline, once per owned file.
                    pool.checkpoint();
                    // Root words of the file's segment.
                    if let Some(&(start, end)) = segments.get(f) {
                        for sym in &root[start..end] {
                            if let Symbol::Word(w) = *sym {
                                counts.add(w, 1);
                            }
                        }
                    }
                    // Rule-local words scaled by the rule's occurrences in
                    // `f`.
                    for &(r, occ) in prep.csr.row(f) {
                        for &(w, c) in dag.local_words(r as usize) {
                            counts.add(w, c as u64 * occ);
                        }
                    }
                    // Sort the 4-byte words before the drain, not the
                    // 16-byte pairs after it: ~20 % faster warm term vector
                    // on the benchmark's `manyfiles` (2-core x86-64).
                    counts.touched.sort_unstable();
                    counts.drain_into(&mut part.values);
                    part.ends.push(part.values.len());
                }
                part
            })
        },
        // Finalize: the file ranges are contiguous and come back in worker
        // order, so the parts are the table's rows in file order.
        |_, parts| AnalyticsOutput::TermVector(posting_table(0, parts)),
    )
}

// ---------------------------------------------------------------------------
// sequence count / ranked inverted index
// ---------------------------------------------------------------------------

/// Work item of the sequence traversals: the windows whose first word lies
/// in elements `begin..end` of rule `rule`'s body, read up to element
/// `limit`, all local to `source`.  A non-root rule's chunk reads to the end
/// of its body and is its own source; a root chunk reads to the end of its
/// file's segment, and its source is `num_rules + file`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SeqItem {
    rule: u32,
    begin: usize,
    end: usize,
    limit: usize,
    source: u32,
}

/// Every sequence work item: [`exec::chunk_ranges`] over the non-root rule
/// bodies, then over the root's file segments, so a chunk's item index is
/// already its source.
pub(crate) fn sequence_work_items(
    grammar: &Grammar,
    segments: &[(usize, usize)],
    target: usize,
) -> Vec<SeqItem> {
    // `(rule, first element, end)` of every chunked span, in source order.
    let spans: Vec<(u32, usize, usize)> = (0..grammar.num_rules())
        .map(|r| (r as u32, 0, if r == 0 { 0 } else { grammar.rule(r).len() }))
        .chain(segments.iter().map(|&(start, end)| (0, start, end)))
        .collect();
    exec::chunk_ranges(spans.iter().map(|&(_, start, end)| end - start), target)
        .into_iter()
        .map(|c| {
            let (rule, start, limit) = spans[c.item as usize];
            let (begin, end) = (start + c.begin as usize, start + c.end as usize);
            SeqItem {
                rule,
                begin,
                end,
                limit,
                source: c.item,
            }
        })
        .collect()
}

/// Every distinct `l`-window of the grammar with the sources it is local to
/// and how often — Figure 8's per-rule local tables, grouped into one ordered
/// table of width `l`.  Window `i`'s words are its key row
/// ([`PostingTable::key_at`]; ascending, the key layout of the result
/// tables), and its `(source, local count)` pairs are its posting list
/// (row `i` of [`PostingTable::csr`]).  A source is a rule id, or `num_rules +
/// file` for a window of that file's root segment.  The table depends only
/// on the archive and `l` — no rule or file weights — so an engine fills it
/// once per `l` ([`fill_window_table`]) and both sequence tasks read it.  At
/// `l` = 1 a window is a word: that table is built directly
/// ([`word_table`]), and the word tasks read it too.
pub(crate) type WindowTable = PostingTable<(u32, u64)>;

/// The `l` = 1 window table, equal to what [`fill_window_table`] yields at
/// `l` = 1, without head/tail records or a sort: a word's sources are the
/// rules `r` ≥ 1 whose local word list holds it (the list's count) and then
/// the files whose root segment holds it (its occurrences there).  The pool
/// folds each root segment into its distinct words, one [`DenseCounts`]
/// per worker; then the counting sort by word both fills share
/// ([`word_starts`]) counts each word's sources and writes them at the
/// word's cursor.  Every column is allocated at its exact length.
pub(crate) fn word_table(
    archive: &TadocArchive,
    dag: &Dag,
    segments: &[(usize, usize)],
    pool: &WorkerPool,
) -> WindowTable {
    let (root, num_rules) = (archive.grammar.root(), dag.num_rules);
    assert_sources_fit(num_rules, segments.len());
    let vocab = archive.vocabulary_size();
    // One worker's fold: the files it claimed, each with its range of
    // the worker's flat `(word, occurrences)` list.
    struct Fold {
        counts: DenseCounts,
        files: Vec<(usize, std::ops::Range<usize>)>,
        words: Vec<(u32, u64)>,
    }
    let folds = claim_loop(
        pool,
        segments.len(),
        files_per_claim(segments.len(), pool.threads()),
        || Fold {
            counts: DenseCounts::new(vocab),
            files: Vec::new(),
            words: Vec::new(),
        },
        |fold, f| {
            let (start, end) = segments[f];
            for sym in &root[start..end] {
                if let Symbol::Word(w) = *sym {
                    fold.counts.add(w, 1);
                }
            }
            let at = fold.words.len();
            fold.counts.drain_into(&mut fold.words);
            fold.files.push((f, at..fold.words.len()));
        },
    );
    let mut root_words: Vec<&[(u32, u64)]> = vec![&[]; segments.len()];
    for fold in &folds {
        for (f, range) in &fold.files {
            root_words[*f] = &fold.words[range.clone()];
        }
    }
    let rule_words = (1..num_rules).map(|r| dag.local_words(r));
    let leads = rule_words.clone().flatten().map(|&(w, _)| w);
    let root_leads = folds.iter().flat_map(|fold| &fold.words).map(|&(w, _)| w);
    let starts = word_starts(vocab, leads.chain(root_leads));
    let pairs = starts[vocab];
    let mut values = vec![(0u32, 0u64); pairs];
    let mut next = starts[..vocab].to_vec();
    let mut put = |w: u32, source: usize, count: u64| {
        let at = &mut next[w as usize];
        values[*at] = (source as u32, count);
        *at += 1;
    };
    for (r, words) in (1..).zip(rule_words) {
        for &(w, c) in words {
            put(w, r, c as u64);
        }
    }
    for (f, words) in root_words.into_iter().enumerate() {
        for &(w, c) in words {
            put(w, num_rules + f, c);
        }
    }
    let present = |w: &usize| starts[*w] < starts[*w + 1];
    let mut keys = Vec::with_capacity((0..vocab).filter(present).count());
    keys.extend((0..vocab).filter(present).map(|w| w as u32));
    let offsets = (keys.iter().map(|&w| starts[w as usize]))
        .chain([pairs])
        .map(merge::offset)
        .collect();
    PostingTable::from_sorted_parts(1, keys, offsets, values)
}

/// Runs `pass` over contiguous window ranges of `table` holding
/// ≈ 1/threads of the `(source, count)` pairs each — the table's offsets
/// cut by [`exec::split`], one range per worker, one pool epoch — and
/// returns the parts in key order.  Each
/// worker passes the cancel/deadline checkpoint once, before its range.
fn over_key_ranges<R: Send>(
    table: &WindowTable,
    pool: &WorkerPool,
    pass: impl Fn(std::ops::Range<usize>) -> R + Sync,
) -> Vec<R> {
    let ranges = exec::split(table.csr().offsets(), pool.threads());
    pool.map_workers(ranges, |_, windows| {
        pool.checkpoint();
        pass(windows)
    })
}

/// `sequenceCount`'s pass: per window, Σ local count × the source's rule
/// weight (a root source weighs 1).  Windows whose total is zero — local
/// only to rules the root never reaches — are dropped.
fn weighted_totals(table: &WindowTable, weights: &[u64], pool: &WorkerPool) -> Vec<Part<u64>> {
    over_key_ranges(table, pool, |windows| {
        let mut part = Part {
            keys: Vec::with_capacity(windows.len() * table.width()),
            ends: Vec::new(),
            values: Vec::with_capacity(windows.len()),
        };
        for i in windows {
            let total: u64 = (table.csr().row(i).iter())
                .map(|&(s, c)| weights.get(s as usize).map_or(c, |w| c * w))
                .sum();
            if total > 0 {
                part.keys.extend_from_slice(table.key_at(i));
                part.values.push(total);
            }
        }
        part
    })
}

/// The count finalizer: the [`CountTable`] of width `width` of
/// [`weighted_totals`]' parts, answering `task` — `sequenceCount`, or at
/// width 1 `wordCount` and, ranked, `sort`.
fn count_table(task: Task, width: usize, parts: Vec<Part<u64>>) -> AnalyticsOutput {
    let (keys, _, counts) = merge::assemble(parts);
    let table = CountTable::from_sorted_columns(width, keys, counts);
    match task {
        Task::WordCount => AnalyticsOutput::WordCount(table),
        Task::Sort => AnalyticsOutput::Sort(rank(&table)),
        _ => AnalyticsOutput::SequenceCount(table),
    }
}

/// The posting finalizer: the [`PostingTable`] of width `width` of a
/// pass's parts — `invertedIndex`'s (width 1), `rankedInvertedIndex`'s
/// (width `l`) or `termVector`'s (width 0, rows in file order).
fn posting_table<V: Copy>(width: usize, parts: Vec<Part<V>>) -> PostingTable<V> {
    let (keys, offsets, values) = merge::assemble(parts);
    PostingTable::from_sorted_parts(width, keys, offsets, values)
}

/// `invertedIndex`'s pass over the word table: each worker ORs every
/// source's files — a rule's row of `fw`, a root source's one file — into
/// its own [`FileBits`], then drains them in file order, so a posting list
/// needs no sort.  Words with no posting — local only to rules the root
/// never reaches — are dropped.
fn postings(
    words: &WindowTable,
    fw: &Csr<(FileId, u64)>,
    num_files: usize,
    pool: &WorkerPool,
) -> Vec<Part<FileId>> {
    debug_assert_eq!(words.width(), 1);
    let num_rules = fw.num_rows() as u32;
    over_key_ranges(words, pool, |range| {
        let mut files = FileBits {
            blocks: vec![0; num_files.div_ceil(64)],
            touched: Vec::new(),
        };
        let mut part = Part::default();
        for i in range {
            for &(source, _) in words.csr().row(i) {
                if source < num_rules {
                    for &(file, _) in fw.row(source as usize) {
                        files.set(file);
                    }
                } else {
                    files.set(source - num_rules);
                }
            }
            let before = part.values.len();
            files.drain_into(&mut part.values);
            if part.values.len() > before {
                part.keys.extend_from_slice(words.key_at(i));
                part.ends.push(part.values.len());
            }
        }
        part
    })
}

/// `rankedInvertedIndex`'s pass: each worker walks its windows, scatters
/// every source's `count ×` its per-file occurrences (or `count` into the
/// one file of a root source) into its own [`DenseCounts`] over the files,
/// and drains and ranks only the files the window touched (descending
/// count, then ascending file), so the `windows × files` cross product
/// exists only as additions.  Windows with no posting — local only to
/// rules the root never reaches — are dropped.
fn ranked_postings(
    table: &WindowTable,
    fw: &Csr<(FileId, u64)>,
    num_files: usize,
    pool: &WorkerPool,
) -> Vec<Part<(FileId, u64)>> {
    let num_rules = fw.num_rows() as u32;
    over_key_ranges(table, pool, |windows| {
        let mut per_file = DenseCounts::new(num_files);
        let mut part = Part::default();
        for i in windows {
            for &(source, count) in table.csr().row(i) {
                if source < num_rules {
                    for &(file, occ) in fw.row(source as usize) {
                        per_file.add(file, count * occ);
                    }
                } else {
                    per_file.add(source - num_rules, count);
                }
            }
            let before = part.values.len();
            per_file.drain_into(&mut part.values);
            let postings = &mut part.values[before..];
            if !postings.is_empty() {
                postings.sort_unstable_by(rank_order);
                part.keys.extend_from_slice(table.key_at(i));
                part.ends.push(part.values.len());
            }
        }
        part
    })
}

/// A window table names a source by a `u32`: a rule id, or `num_rules +
/// file`.
fn assert_sources_fit(num_rules: usize, num_files: usize) {
    assert!(
        u32::try_from(num_rules + num_files).is_ok(),
        "{num_rules} rules + {num_files} files do not fit the u32 source id"
    );
}

/// Sequence work items per claim of the window fill's scan.
const ITEMS_PER_CLAIM: usize = 16;

/// Counting-sort offsets over `vocab` words: given the leading word of
/// every entry, `starts[w]..starts[w + 1]` is where the entries led by word
/// `w` go, in word order.  Both window-table fills group by it.
fn word_starts(vocab: usize, leads: impl Iterator<Item = u32>) -> Vec<usize> {
    let mut starts = vec![0usize; vocab + 1];
    for w in leads {
        starts[w as usize + 1] += 1;
    }
    for w in 0..vocab {
        starts[w + 1] += starts[w];
    }
    starts
}

/// Fills the [`WindowTable`] of `ht.l` from `items` over `num_files` root
/// segments — one packed `u64` entry per window when the archive's widths
/// allow it ([`EntryLayout::packs`]), an owned `(rest words, source)` entry
/// otherwise — and records what its scan and sort measured in `timings`.
pub(crate) fn fill_window_table(
    archive: &TadocArchive,
    ht: &HeadTail,
    items: &[SeqItem],
    num_files: usize,
    pool: &WorkerPool,
    timings: &mut PhaseTimings,
) -> WindowTable {
    let (grammar, vocab) = (&archive.grammar, archive.vocabulary_size());
    assert_sources_fit(grammar.num_rules(), num_files);
    let layout = EntryLayout::new(vocab, grammar.num_rules() + num_files);
    if layout.packs(ht.l) {
        fill_windows::<u64>(grammar, ht, items, vocab, layout, pool, timings)
    } else {
        fill_windows::<(Sequence, u32)>(grammar, ht, items, vocab, layout, pool, timings)
    }
}

/// The window fill for one entry form, in four steps:
///
/// 1. the claim loop scans the work items; each worker pushes the
///    [`WindowEntry`] of every local window, beside its leading word;
/// 2. a counting sort by that word groups all entries in one array;
/// 3. [`exec::split`] cuts the array at the word boundaries nearest
///    1/threads of the entries into one contiguous range per worker
///    (`starts` is its running-cost column), and in one pool epoch each
///    worker sorts each leading-word group of its range on its own and
///    counts its distinct windows and `(window, source)` pairs;
/// 4. the table's columns are allocated once, at their exact length, and
///    cut at those counts; in a second epoch each worker folds its sorted
///    range straight into its slices: one key row per window, one
///    `(source, local count)` pair per distinct source, and each window's
///    offset rebased by the pairs of the workers before it.
fn fill_windows<E: WindowEntry>(
    grammar: &Grammar,
    ht: &HeadTail,
    items: &[SeqItem],
    vocab: usize,
    layout: EntryLayout,
    pool: &WorkerPool,
    timings: &mut PhaseTimings,
) -> WindowTable {
    let scan_timer = Timer::start();
    let scanned = claim_loop(
        pool,
        items.len(),
        ITEMS_PER_CLAIM,
        Vec::new,
        |entries, item| {
            let it = items[item];
            let body = grammar.rule(it.rule as usize);
            count_range_windows(body, ht, it.begin, it.end, it.limit, |words, _| {
                entries.push((E::encode(&words[1..], it.source, layout), words[0]));
            });
        },
    );
    timings.scan = scan_timer.elapsed();

    let sort_timer = Timer::start();
    let starts = &word_starts(vocab, scanned.iter().flatten().map(|&(_, lead)| lead))[..];
    let mut grouped: Vec<E> = Vec::new();
    grouped.resize_with(starts[vocab], Default::default);
    let mut next = starts[..vocab].to_vec();
    for (entry, lead) in scanned.into_iter().flatten() {
        let at = &mut next[lead as usize];
        grouped[*at] = entry;
        *at += 1;
    }
    let words = exec::split(starts, pool.threads());
    let mut rest = &mut grouped[..];
    let ranges: Vec<_> = (words.iter())
        .map(|w| take_front(&mut rest, starts[w.end] - starts[w.start]))
        .collect();
    timings.merge_entries = starts[vocab] as u64;
    timings.largest_merge_group = ranges.iter().map(|r| r.len() as u64).max().unwrap_or(0);
    // A worker range's leading words, each with its group in the range.
    let groups = move |w: &std::ops::Range<usize>| {
        let base = starts[w.start];
        w.clone()
            .map(move |w| (w as u32, starts[w] - base..starts[w + 1] - base))
    };
    let counted = pool.map_workers(words.iter().zip(ranges).collect(), |_, (words, range)| {
        // Fault-injection site, once per worker: a panic mid-sort, with
        // the other workers' ranges half sorted.
        failpoints::fail_point!("merge-fold");
        let (mut windows, mut pairs) = (0, 0);
        for (_, group) in groups(words) {
            let group = &mut range[group];
            group.sort_unstable();
            windows += group.len().min(1);
            pairs += group.len().min(1);
            for ab in group.windows(2) {
                windows += !ab[0].same_window(&ab[1], layout) as usize;
                pairs += (ab[0] != ab[1]) as usize;
            }
        }
        (words, range, windows, pairs)
    });

    // Every column at its exact length, cut at the workers' counts.
    let (l, windows) = (ht.l, counted.iter().map(|c| c.2).sum::<usize>());
    let mut keys = vec![0u32; windows * l];
    let mut offsets = vec![0u32; windows + 1];
    let mut values = vec![(0u32, 0u64); counted.iter().map(|c| c.3).sum()];
    let (mut k, mut o, mut v, mut base) = (&mut keys[..], &mut offsets[1..], &mut values[..], 0);
    let inputs: Vec<_> = (counted.into_iter())
        .map(|(words, range, windows, pairs)| {
            let (keys, ends) = (take_front(&mut k, windows * l), take_front(&mut o, windows));
            let values = take_front(&mut v, pairs);
            base += pairs;
            (words, range, keys, ends, values, base - pairs)
        })
        .collect();
    pool.map_workers(inputs, |_, (words, range, keys, ends, values, base)| {
        let (mut window, mut pair) = (0, 0);
        for (lead, group) in groups(words) {
            let group = &mut range[group];
            for entries in group.chunk_by(|a, b| a.same_window(b, layout)) {
                let row = &mut keys[window * l..(window + 1) * l];
                row[0] = lead;
                entries[0].write_rest(&mut row[1..], layout);
                for run in entries.chunk_by(|a, b| a == b) {
                    values[pair] = (run[0].source(layout), run.len() as u64);
                    pair += 1;
                }
                ends[window] = merge::offset(base + pair);
                window += 1;
            }
            if std::mem::needs_drop::<E>() {
                // An owned entry is freed here, on the worker, instead of
                // on the caller when the array is dropped.
                group.iter_mut().for_each(|e| drop(std::mem::take(e)));
            }
        }
    });
    timings.window_sort = sort_timer.elapsed();
    PostingTable::from_sorted_parts(l, keys, offsets, values)
}

/// The first `len` items of `slice`, which keeps the rest.
fn take_front<'a, T>(slice: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (front, rest) = std::mem::take(slice).split_at_mut(len);
    *slice = rest;
    front
}

/// `sequenceCount`, and `wordCount` / `sort` at `l` = 1 (a word is a
/// one-word window): one weighted pass over the window table of `l`, then
/// its count table.
fn count(a: &Analysis<'_>, task: Task, l: usize, pool: &WorkerPool) -> TaskExecution {
    run_phases(
        |charge| {
            let weights = a.ensure_rule_weights(pool, charge);
            (weights, a.ensure_window_table(l, pool, charge))
        },
        |(weights, slot)| weighted_totals(slot.windows(), weights, pool),
        |_, parts| count_table(task, l, parts),
    )
}

/// `rankedInvertedIndex`: one pass over the window table, then its posting
/// lists.
fn ranked_inverted_index(a: &Analysis<'_>, l: usize, pool: &WorkerPool) -> TaskExecution {
    run_phases(
        |charge| {
            let fw = a.ensure_file_weights(pool, charge);
            let num_files = a.ensure_segments(charge).len();
            (fw, num_files, a.ensure_window_table(l, pool, charge))
        },
        |(fw, num_files, slot)| ranked_postings(slot.windows(), fw, *num_files, pool),
        |_, parts| AnalyticsOutput::RankedInvertedIndex(posting_table(l, parts)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::run_task;
    use crate::{oracle, weights};
    use sequitur::compress::{compress_corpus, CompressOptions};

    fn build(corpus: &[(String, String)]) -> (TadocArchive, Dag) {
        let archive = compress_corpus(corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        (archive, dag)
    }

    /// One cold query on a fresh session built from `builder`.
    fn run_cold(builder: EngineBuilder<'_>, task: Task, cfg: TaskConfig) -> TaskExecution {
        builder
            .build()
            .expect("valid engine configuration")
            .run(task, cfg)
            .expect("valid task configuration")
    }

    fn redundant_corpus() -> Vec<(String, String)> {
        let shared = "the quick brown fox jumps over the lazy dog while the cat watches ".repeat(6);
        (0..7)
            .map(|i| {
                (
                    format!("doc{i}"),
                    format!("{shared} unique token{i} {shared}"),
                )
            })
            .collect()
    }

    /// 48 files, each repeating a phrase of its own: every file's phrase
    /// becomes a rule of its own, and those rules share DAG layers.
    pub(crate) fn wide_corpus() -> Vec<(String, String)> {
        (0..48)
            .map(|i| {
                let phrase = format!("p{i} q{i} r{i} s{i} t{i}");
                let text = format!("{phrase} {phrase} m{} {phrase} {phrase} n{}", i % 5, i % 7);
                (format!("doc{i}"), text)
            })
            .collect()
    }

    /// [`wide_corpus`] compressed, checked to hold a DAG level wider than
    /// the [`exec::INLINE_THRESHOLD`] rules a level pass runs inline, so a
    /// pool of more than one thread dispatches that level.
    pub(crate) fn build_wide() -> (TadocArchive, Dag) {
        let (archive, dag) = build(&wide_corpus());
        let levels = head_tail::levels_top_down(&dag);
        let widest = levels.iter().map(Vec::len).max().unwrap_or(0);
        let threshold = exec::INLINE_THRESHOLD;
        assert!(
            widest > threshold,
            "the widest level holds only {widest} rules"
        );
        (archive, dag)
    }

    /// The corpora the level passes are checked on: one whose levels all
    /// run inline, and one with a dispatched level.
    fn level_corpora() -> [(TadocArchive, Dag); 2] {
        [build(&redundant_corpus()), build_wide()]
    }

    const POOL_WIDTHS: [usize; 4] = [1, 2, 4, 8];

    #[test]
    fn parallel_weights_match_sequential_weights() {
        for (archive, dag) in level_corpora() {
            let expected = weights::rule_weights(&dag, &mut Default::default());
            let levels = head_tail::levels_top_down(&dag);
            for threads in POOL_WIDTHS {
                let pool = WorkerPool::new(threads);
                let got = parallel_rule_weights(&dag, &levels, &pool);
                let label = format!("{} files, threads = {threads}", archive.num_files());
                assert_eq!(got, expected, "{label}");
            }
        }
    }

    /// A DAG whose levels all hold at most [`exec::INLINE_THRESHOLD`] rules
    /// gets its rule weights without waking the pool: no epoch on 4 threads.
    #[test]
    fn rule_weight_levels_that_run_inline_dispatch_no_epoch() {
        let (_, dag) = build(&redundant_corpus());
        let levels = head_tail::levels_top_down(&dag);
        assert!(levels.iter().all(|l| l.len() <= exec::INLINE_THRESHOLD));
        let pool = WorkerPool::new(4);
        let got = parallel_rule_weights(&dag, &levels, &pool);
        assert_eq!(got, weights::rule_weights(&dag, &mut Default::default()));
        assert_eq!(
            pool.epochs(),
            0,
            "a near-empty level must not pay a barrier"
        );
    }

    /// The sequence work items cover every non-root rule body and every
    /// root segment exactly once, in order, in chunks of at most the
    /// target: a rule's chunks read to the end of its body and count for
    /// the rule, a segment's read to the end of the segment and count for
    /// `num_rules + file`, and an empty file's segment yields none.
    #[test]
    fn sequence_work_items_cover_every_body_and_segment_exactly() {
        let with_empty_file = [("a", "x y z x y z x y"), ("empty", ""), ("b", "y z")]
            .map(|(name, text)| (name.to_string(), text.to_string()));
        for corpus in [
            redundant_corpus(),
            ranked_corpus(),
            with_empty_file.to_vec(),
        ] {
            let (archive, _) = build(&corpus);
            let grammar = &archive.grammar;
            let segments = weights::file_segments(grammar);
            let num_rules = grammar.num_rules();
            for target in [1usize, 4, 7, usize::MAX] {
                let items = sequence_work_items(grammar, &segments, target);
                let mut items = items.iter().peekable();
                let bodies = (1..num_rules).map(|r| (r, 0, grammar.rule(r).len()));
                let roots = (0..)
                    .zip(&segments)
                    .map(|(f, &(s, e))| (num_rules + f, s, e));
                for (source, start, end) in bodies.chain(roots) {
                    let rule = if source < num_rules { source } else { 0 };
                    let mut covered = start;
                    while let Some(item) = items.next_if(|it| it.source as usize == source) {
                        let label = format!("source {source}, target {target}");
                        assert_eq!((item.rule as usize, item.begin), (rule, covered), "{label}");
                        assert!(item.end > item.begin && item.end - item.begin <= target);
                        assert_eq!(item.limit, end, "{label}");
                        covered = item.end;
                    }
                    assert_eq!(covered, end, "source {source}, target {target}");
                }
                assert!(
                    items.next().is_none(),
                    "target {target}: items past the last segment"
                );
            }
        }
    }

    /// The sequential reference's per-rule file weights as the rule-major
    /// view: every rule's `(file, occurrences)` row, sorted by file.
    fn sequential_file_weights(archive: &TadocArchive, dag: &Dag) -> Csr<(FileId, u64)> {
        let fw = weights::file_weights(&archive.grammar, dag, &mut Default::default());
        let mut expected = Csr::with_capacity(fw.len(), 0);
        for m in &fw {
            let mut row: Vec<(FileId, u64)> = m.iter().map(|(&f, &c)| (f, c)).collect();
            row.sort_unstable();
            for entry in row {
                expected.push(entry);
            }
            expected.end_row();
        }
        expected
    }

    /// The rule-major view the engine derives: the per-file propagation's
    /// file-major matrix, transposed.
    fn transposed_file_weights(
        archive: &TadocArchive,
        dag: &Dag,
        threads: usize,
        chunk_elements: usize,
    ) -> Csr<(FileId, u64)> {
        let pool = WorkerPool::new(threads);
        let segments = weights::file_segments(&archive.grammar);
        let prep = build_term_vector_prep(archive, dag, &segments, chunk_elements, &pool);
        prep.csr.transpose(dag.num_rules)
    }

    /// Checks the transposed file-major matrix against the sequential
    /// reference's file weights on both corpora at every pool width.
    fn assert_file_weights_match(chunk_elements: usize) {
        for (archive, dag) in level_corpora() {
            let expected = sequential_file_weights(&archive, &dag);
            for threads in POOL_WIDTHS {
                let got = transposed_file_weights(&archive, &dag, threads, chunk_elements);
                let label = format!(
                    "{} files, threads = {threads}, chunk_elements = {chunk_elements}",
                    archive.num_files()
                );
                assert_eq!(got, expected, "{label}");
            }
        }
    }

    /// The engine's parallel per-file propagation, with no root segment's
    /// seed scan chunked, yields the sequential file weights at every pool
    /// width.
    #[test]
    fn parallel_file_weights_match_sequential() {
        assert_file_weights_match(4096);
    }

    /// The same with every root segment's seed scan chunked
    /// (`chunk_elements` 1), so the seeds of one segment come from several
    /// chunks.
    #[test]
    fn file_csr_matches_file_weights_on_real_grammars() {
        assert_file_weights_match(1);
    }

    /// Every task equals the sequential reference at every pool width,
    /// chunk size and sequence length, and every column of every answer is
    /// exactly its length: what the results cache charges is what it holds.
    #[test]
    fn all_tasks_match_sequential_at_various_thread_counts() {
        let (archive, dag) = build(&redundant_corpus());
        let mut loose = Vec::new();
        for l in 1..=4usize {
            let cfg = TaskConfig { sequence_length: l };
            for task in Task::ALL {
                let seq = run_task(&archive, &dag, task, cfg);
                for threads in POOL_WIDTHS {
                    for chunk_elements in [1usize, 7, 4096] {
                        let builder = Engine::builder(&archive, &dag)
                            .threads(threads)
                            .chunk_elements(chunk_elements);
                        let fine = run_cold(builder, task, cfg);
                        let label = format!(
                            "task {} with {threads} threads, chunk_elements = \
                             {chunk_elements}, l = {l}",
                            task.name()
                        );
                        assert_eq!(fine.output, seq.output, "{label} diverges");
                        let columns = fine.output.column_capacities();
                        if columns.iter().any(|(len, cap)| len != cap) {
                            loose.push(format!("{label}: (len, cap) {columns:?}"));
                        }
                    }
                }
            }
        }
        assert!(
            loose.is_empty(),
            "{} answers hold spare capacity:\n{}",
            loose.len(),
            loose.join("\n")
        );
    }

    #[test]
    fn sequence_lengths_one_to_four_match_sequential() {
        let (archive, dag) = build(&redundant_corpus());
        for l in [1usize, 2, 4] {
            let cfg = TaskConfig { sequence_length: l };
            for task in [Task::SequenceCount, Task::RankedInvertedIndex] {
                let seq = run_task(&archive, &dag, task, cfg);
                let fine = run_cold(Engine::builder(&archive, &dag).threads(4), task, cfg);
                assert_eq!(fine.output, seq.output, "task {} l={l}", task.name());
            }
        }
    }

    #[test]
    fn degenerate_corpora_are_handled() {
        // (A corpus of nothing but empty files has an empty root, which
        // `Engine::build` refuses: `builder_rejects_structurally_invalid_archives`.)
        let corpora: Vec<Vec<(String, String)>> = vec![
            vec![
                ("empty".to_string(), String::new()),
                ("tiny".to_string(), "x".to_string()),
                ("normal".to_string(), "x y z x y z x y".to_string()),
            ],
            vec![("one".to_string(), "a b a b a b a b".to_string())],
        ];
        let cfg = TaskConfig::default();
        for corpus in corpora {
            let (archive, dag) = build(&corpus);
            for task in Task::ALL {
                let seq = run_task(&archive, &dag, task, cfg);
                let fine = run_cold(Engine::builder(&archive, &dag).threads(3), task, cfg);
                assert_eq!(fine.output, seq.output, "task {}", task.name());
            }
        }
    }

    /// 78 files over a small vocabulary.  Every one of the first 72 strings
    /// three of five phrases together in an order of its own, so the same
    /// windows fall inside rules shared by most files *and* across rule
    /// boundaries of the root.  The last six plant the window `a b` where
    /// only the root sees it: `p1 a`, `b q1`, `p2 a`, `b q2` become rules
    /// first, then two files put `a` and `b` side by side as the tail of one
    /// rule and the head of another.
    fn ranked_corpus() -> Vec<(String, String)> {
        let phrases = [
            "c d e f g h",
            "e f g i j",
            "d e c d",
            "g h i c",
            "j c d e f",
        ];
        let mut corpus: Vec<(String, String)> = (0..72)
            .map(|i| {
                let text = format!(
                    "{} u{} {} {} v{}",
                    phrases[i % 5],
                    i % 9,
                    phrases[(i / 5 + 1) % 5],
                    phrases[(i * 7 + 2) % 5],
                    i % 4
                );
                (format!("doc{i}"), text)
            })
            .collect();
        for (i, text) in [
            "p1 a z1 p1 a z2",
            "z3 b q1 z4 b q1",
            "p2 a z5 p2 a z6",
            "z7 b q2 z8 b q2",
            "p1 a b q1",
            "p2 a b q2",
        ]
        .into_iter()
        .enumerate()
        {
            corpus.push((format!("edge{i}"), text.to_string()));
        }
        corpus
    }

    /// Half of all tokens are one word, so one leading word starts half of
    /// all windows (the word-skewed corpus of `tests/executor_stress.rs`).
    fn word_skewed_corpus() -> Vec<(String, String)> {
        (0..12)
            .map(|f| {
                let text: Vec<String> = (0..600)
                    .map(|i| format!("the w{}", (i * 7 + f * 13) % (40 + f)))
                    .collect();
                (format!("doc{f}"), text.join(" "))
            })
            .collect()
    }

    /// The smallest `l` whose windows do not pack into one `u64` entry at
    /// `archive`'s widths, so that its window fill takes the owned entry.
    fn first_owned_l(archive: &TadocArchive) -> usize {
        let sources = archive.grammar.num_rules() + weights::file_segments(&archive.grammar).len();
        let layout = EntryLayout::new(archive.vocabulary_size(), sources);
        let l = (2..=64)
            .find(|&l| !layout.packs(l))
            .expect("a window too long to pack");
        assert!(layout.packs(l - 1) && !layout.packs(l), "l = {l}");
        l
    }

    /// The second and third sequence queries on an engine read the window
    /// table the first one filled — filled by sequenceCount on one engine
    /// and by rankedInvertedIndex on the next — and must still equal the
    /// sequential reference, for packed (`l` ≤ 5) and owned entries (the
    /// first `l` that does not pack).
    #[test]
    fn warm_window_tables_serve_both_sequence_tasks() {
        let pair = [Task::SequenceCount, Task::RankedInvertedIndex];
        for corpus in [ranked_corpus(), redundant_corpus(), word_skewed_corpus()] {
            let (archive, dag) = build(&corpus);
            for l in (1..=5usize).chain([first_owned_l(&archive)]) {
                let cfg = TaskConfig { sequence_length: l };
                let oracle = pair.map(|task| run_task(&archive, &dag, task, cfg).output);
                for threads in [1usize, 3, 8] {
                    for chunk_elements in [1usize, 7] {
                        for first in [0, 1] {
                            let engine = Engine::builder(&archive, &dag)
                                .threads(threads)
                                .chunk_elements(chunk_elements)
                                .build()
                                .unwrap();
                            for (n, k) in [first, 1 - first, first].into_iter().enumerate() {
                                let (fills, filled) =
                                    (engine.analysis_fills(), engine.word_table_filled());
                                let exec = engine.run(pair[k], cfg).unwrap();
                                let label = format!(
                                    "{} query {n} of {} files, l = {l}, {threads} threads, \
                                     chunk_elements = {chunk_elements}",
                                    pair[k].name(),
                                    corpus.len()
                                );
                                assert_eq!(exec.output, oracle[k], "{label}");
                                if l == 1 {
                                    // The word table is built without a
                                    // scan: the first query fills it, the
                                    // second fills only its own task's
                                    // artifacts, the repeat fills nothing.
                                    assert_eq!(filled, n > 0, "{label}");
                                    assert!(engine.word_table_filled(), "{label}");
                                    assert_eq!(exec.timings.warm, n == 2, "{label}");
                                    assert_eq!(engine.analysis_fills() > fills, n < 2, "{label}");
                                } else {
                                    assert_eq!(exec.timings.merge_entries == 0, n > 0, "{label}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Proves `ranked_corpus` has the source mix the rule-keyed ranked index
    /// must handle, at `l` = 2: a window that is local to a rule occurring
    /// in more than 64 files and also occurs in a root segment, and a window
    /// whose only occurrences are root ones, in two different files.
    fn assert_rule_and_root_sources_mix(archive: &TadocArchive, dag: &Dag) {
        use std::collections::{BTreeMap, BTreeSet};
        let grammar = &archive.grammar;
        let pool = WorkerPool::new(1);
        let ht =
            head_tail::build_head_tail(grammar, dag, &head_tail::levels_top_down(dag), 2, &pool);
        let segments = weights::file_segments(grammar);
        let fw = transposed_file_weights(archive, dag, 1, 4096);
        // Window -> the most files any rule it is local to occurs in.
        let mut in_rules: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
        for (r, body) in grammar.rules().enumerate().skip(1) {
            count_range_windows(body, &ht, 0, body.len(), body.len(), |words, _| {
                let files = in_rules.entry(words.to_vec()).or_insert(0);
                *files = (*files).max(fw.row(r).len());
            });
        }
        let mut in_root: BTreeMap<Vec<u32>, BTreeSet<FileId>> = BTreeMap::new();
        for (file, &(begin, end)) in (0..).zip(&segments) {
            count_range_windows(grammar.root(), &ht, begin, end, end, |words, _| {
                in_root.entry(words.to_vec()).or_default().insert(file);
            });
        }
        assert!(
            in_root
                .keys()
                .any(|w| in_rules.get(w).is_some_and(|&files| files > 64)),
            "no window is both root-local and local to a rule of > 64 files"
        );
        assert!(
            in_root
                .iter()
                .any(|(w, files)| files.len() == 2 && !in_rules.contains_key(w)),
            "no window occurs only in the root, in exactly two files"
        );
    }

    /// Dataset shapes A (many files) and B (few huge files) at scale 0.2.
    fn dataset_corpora() -> Vec<(TadocArchive, Dag)> {
        use datagen::{DatasetId, DatasetPreset};
        [DatasetId::A, DatasetId::B]
            .into_iter()
            .map(|id| {
                let archive = DatasetPreset::new(id).generate_scaled(0.2).compress();
                let dag = Dag::from_grammar(&archive.grammar);
                (archive, dag)
            })
            .collect()
    }

    /// Fills the window table of `l` at every pool width and at
    /// `chunk_elements` 1, 7 and 4096, and hands each to `check` with a
    /// label and the pool that filled it.
    fn check_window_fills(
        archive: &TadocArchive,
        dag: &Dag,
        l: usize,
        mut check: impl FnMut(&str, &WorkerPool, WindowTable),
    ) {
        let grammar = &archive.grammar;
        let segments = weights::file_segments(grammar);
        let levels = head_tail::levels_top_down(dag);
        for threads in POOL_WIDTHS {
            let pool = WorkerPool::new(threads);
            let ht = head_tail::build_head_tail(grammar, dag, &levels, l, &pool);
            for chunk_elements in [1usize, 7, 4096] {
                let items = sequence_work_items(grammar, &segments, chunk_elements);
                let timings = &mut PhaseTimings::default();
                let filled =
                    fill_window_table(archive, &ht, &items, segments.len(), &pool, timings);
                let label = format!(
                    "{} files, l = {l}, {threads} threads, chunk_elements = {chunk_elements}",
                    archive.num_files()
                );
                check(&label, &pool, filled);
            }
        }
    }

    /// The direct `l` = 1 table is, field for field, the table the window
    /// fill builds at `l` = 1, at every pool width and whatever the chunk
    /// size of the fill.
    #[test]
    fn word_table_matches_the_window_fill_at_l_1() {
        let mut corpora = vec![
            build(&redundant_corpus()),
            build_wide(),
            build(&ranked_corpus()),
        ];
        corpora.extend(dataset_corpora());
        for (archive, dag) in &corpora {
            let segments = weights::file_segments(&archive.grammar);
            check_window_fills(archive, dag, 1, |label, pool, filled| {
                let words = word_table(archive, dag, &segments, pool);
                assert!(words == filled, "{label}");
            });
        }
    }

    /// Every column of every window table is exactly its length: the word
    /// table and the fill at `l` = 1, and the fill at `l` = 2 to 4 (packed
    /// entries) and at the first `l` that does not pack (owned entries), at
    /// every pool width and chunk size.
    #[test]
    fn window_tables_hold_no_spare_capacity() {
        let (archive, dag) = build(&redundant_corpus());
        let segments = weights::file_segments(&archive.grammar);
        let mut loose = Vec::new();
        let mut check = |label: &str, table: &WindowTable| {
            let columns = table.column_capacities();
            if columns.iter().any(|(len, cap)| len != cap) {
                loose.push(format!("{label}: (len, cap) {columns:?}"));
            }
        };
        for l in (1..=4usize).chain([first_owned_l(&archive)]) {
            check_window_fills(&archive, &dag, l, |label, pool, filled| {
                if l == 1 {
                    let words = word_table(&archive, &dag, &segments, pool);
                    check(&format!("word table, {label}"), &words);
                }
                check(&format!("window fill, {label}"), &filled);
            });
        }
        assert!(
            loose.is_empty(),
            "{} window tables hold spare capacity:\n{}",
            loose.len(),
            loose.join("\n")
        );
    }

    /// The window table of `l` = 2 to 4 (packed entries) and of the first
    /// `l` that does not pack (owned entries) is the same, field for field,
    /// at every pool width and chunk size: on a two-word corpus, where most
    /// workers get an empty word range, on a corpus where one word leads
    /// half of all windows, and on both dataset shapes.
    #[test]
    fn window_fill_is_the_same_at_every_width_and_chunk_size() {
        let two_words = [("a", "x y y x x y x y y y x"), ("b", "y x y x x y")]
            .map(|(name, text)| (name.to_string(), text.to_string()));
        let mut corpora = vec![build(&two_words), build(&word_skewed_corpus())];
        corpora.extend(dataset_corpora());
        for (archive, dag) in &corpora {
            for l in [2usize, 3, 4, first_owned_l(archive)] {
                let mut first = None;
                check_window_fills(archive, dag, l, |label, _, filled| {
                    if let Some(first) = &first {
                        assert!(*first == filled, "{label}");
                    } else {
                        first = Some(filled);
                    }
                });
            }
        }
    }

    /// `files` files sharing a phrase, each with words of its own in the
    /// root, so the word table holds both rules that occur in every file
    /// and root sources of every file.  From file 64 on, the files also
    /// share a phrase of their own, one of whose words file 3's root holds:
    /// that word's files are set block 1 first, then block 0.
    fn many_file_corpus(files: usize) -> Vec<(String, String)> {
        let shared = "one two three four five six seven ".repeat(3);
        (0..files)
            .map(|i| {
                let late = match i {
                    3 => "late1".to_string(),
                    64.. => "late1 late2 late3 late4 ".repeat(2),
                    _ => String::new(),
                };
                let text = format!(
                    "{shared} own{i} k{} {shared} l{} own{i} {late}",
                    i % 5,
                    i % 70
                );
                (format!("doc{i}"), text)
            })
            .collect()
    }

    /// The word tasks equal the oracle on 64 files — the file bitmap's last
    /// block exactly full — and on 130, with a last block of two files.
    #[test]
    fn word_tasks_match_the_oracle_on_full_and_partial_file_blocks() {
        let cfg = TaskConfig::default();
        for files in [64usize, 130] {
            let (archive, dag) = build(&many_file_corpus(files));
            let expanded = archive.grammar.expand_files();
            for task in [Task::WordCount, Task::Sort, Task::InvertedIndex] {
                let oracle = crate::oracle::run(&expanded, task, cfg);
                for threads in [1usize, 3, 8] {
                    let builder = Engine::builder(&archive, &dag).threads(threads);
                    let fine = run_cold(builder, task, cfg);
                    let label = format!("{} on {files} files, {threads} threads", task.name());
                    assert_eq!(*fine.output, oracle, "{label}");
                }
            }
        }
    }

    #[test]
    fn ranked_index_matches_sequential_over_rule_and_root_sources() {
        let corpus = ranked_corpus();
        assert!(corpus.len() > 64);
        let (archive, dag) = build(&corpus);
        assert_rule_and_root_sources_mix(&archive, &dag);
        // `l` = 4 and 5 pack; the first `l` that does not takes the owned
        // entry.
        for l in (1..=5usize).chain([first_owned_l(&archive)]) {
            let cfg = TaskConfig { sequence_length: l };
            let seq = run_task(&archive, &dag, Task::RankedInvertedIndex, cfg);
            for threads in [1usize, 3, 8] {
                for chunk_elements in [1usize, 7] {
                    let builder = Engine::builder(&archive, &dag)
                        .threads(threads)
                        .chunk_elements(chunk_elements);
                    let fine = run_cold(builder, Task::RankedInvertedIndex, cfg);
                    assert_eq!(
                        fine.output, seq.output,
                        "l = {l}, {threads} threads, chunk_elements = {chunk_elements}"
                    );
                }
            }
        }
    }

    /// The root's segments are the one file count, not the archive's file
    /// list.  Both lists below validate.  The cut one lists so few files
    /// that the window fill's source field would be too narrow if the list
    /// sized it.  The padded one lists a file that the root does not hold.
    /// Every task, sequential and fine, answers what the expanded files give.
    #[test]
    fn window_fill_sizes_sources_by_root_segments_not_the_file_list() {
        let (archive, dag) = build(&ranked_corpus());
        let expanded = archive.grammar.expand_files();
        let bits = |n: usize| usize::BITS - n.leading_zeros();
        let rules = archive.grammar.num_rules();
        let segments = weights::file_segments(&archive.grammar).len();
        // The longest file list whose sources need fewer bits than the
        // segments' highest source.
        let listed = (0..segments)
            .rev()
            .find(|&files| bits(rules + files - 1) < bits(rules + segments - 1))
            .expect("a shorter file list narrows the source field");
        let mut cut = archive.clone();
        cut.files.truncate(listed);
        let mut padded = archive.clone();
        padded.files.push(padded.files[0].clone());
        for archive in [&cut, &padded] {
            archive.validate().expect("the archive validates");
            for task in Task::ALL {
                let lengths = if task.is_sequence_sensitive() {
                    2..=4
                } else {
                    3..=3
                };
                for l in lengths {
                    let cfg = TaskConfig { sequence_length: l };
                    let label = format!(
                        "{task:?}, l = {l}, {} files listed, {segments} segments",
                        archive.files.len()
                    );
                    let expected = oracle::run(&expanded, task, cfg);
                    let seq = run_task(archive, &dag, task, cfg);
                    assert_eq!(*seq.output, expected, "sequential, {label}");
                    for threads in [1usize, 3] {
                        let builder = Engine::builder(archive, &dag).threads(threads);
                        let fine = run_cold(builder, task, cfg);
                        // Not answered by the sequential fallback after a panic.
                        assert_eq!(fine.timings.degraded, None, "{threads} threads, {label}");
                        assert_eq!(*fine.output, expected, "{threads} threads, {label}");
                    }
                }
            }
        }
    }
}
